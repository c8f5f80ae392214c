/**
 * @file
 * The traced run's per-layer timings: calls into the public functions
 * of rtl, core, sim and serve, made from the benchmark on the job
 * stream the workload used, each wrapped in a span. Every per-layer
 * metric is derived from those spans.
 */

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/features.hh"
#include "core/oracle_controller.hh"
#include "core/predictive_controller.hh"
#include "runner.hh"
#include "rtl/analysis.hh"
#include "rtl/compile.hh"
#include "rtl/verify.hh"
#include "sim/job_cache.hh"

namespace perfbench {

using namespace predvfs;

namespace {

/** Calls per layer are capped so the traced run stays short. */
constexpr std::size_t kSampleJobs = 400;

std::size_t
itemsOf(const std::vector<JobInput> &jobs)
{
    std::size_t n = 0;
    for (const JobInput &job : jobs)
        n += job.items.size();
    return n;
}

struct Totals
{
    std::uint64_t checks = 0, mispredicts = 0, lockstep = 0, lanes = 0;
    std::uint64_t hits = 0, misses = 0, evictions = 0;
};

void
timeStream(const LayerStream &stream, const LayerContext &context,
           std::uint64_t root, Tracer &tracer, Totals &totals,
           Report &report)
{
    const StreamTwin &twin = *stream.twin;
    const rtl::Design &design = twin.accel->design();
    const core::SlicePredictor &predictor = *twin.predictor();
    const std::vector<JobInput> sample(
        stream.jobs.begin(),
        stream.jobs.begin() +
            static_cast<std::ptrdiff_t>(
                std::min(kSampleJobs, stream.jobs.size())));
    const std::size_t items = itemsOf(sample);
    const std::string &name = twin.name;

    // rtl: scalar compiled run and the slice with its instrumenter.
    const rtl::Interpreter scalar(design);
    std::vector<rtl::JobResult> want;
    {
        Tracer::Scope span(tracer, "rtl.run", root);
        for (const JobInput &job : sample)
            want.push_back(scalar.run(job));
        span.work = items;
    }
    rtl::Instrumenter instr = predictor.makeInstrumenter();
    {
        Tracer::Scope span(tracer, "rtl.slice", root);
        for (const JobInput &job : sample)
            predictor.runWith(job, instr);
        span.work = items;
    }

    // rtl: self-speculation on the stream's head (as the engine does on
    // its first prepare), translation validation, then the batch kernel
    // in chunks of the batch occupancy the workload saw.
    const rtl::Interpreter batched(design);
    {
        const std::vector<JobInput> head(
            sample.begin(),
            sample.begin() +
                static_cast<std::ptrdiff_t>(std::min<std::size_t>(
                    32, sample.size())));
        Tracer::Scope span(tracer, "rtl.speculate", root);
        batched.speculate(head);
        span.work = 1;
    }
    {
        Tracer::Scope span(tracer, "rtl.verify", root);
        const rtl::VerifyReport verdict =
            rtl::verifyCompiledDesign(*batched.compiled());
        span.work = 1;
        if (!verdict.diagnostics.empty())
            report.lines.push_back("verifier reports diagnostics on " + name);
    }
    const auto chunk = static_cast<std::size_t>(
        std::max(1.0, std::round(context.batchOccupancy)));
    std::vector<const JobInput *> ptrs;
    for (const JobInput &job : sample)
        ptrs.push_back(&job);
    std::vector<rtl::JobResult> got(sample.size());
    {
        Tracer::Scope span(tracer, "rtl.batch", root);
        for (std::size_t i = 0; i < ptrs.size(); i += chunk) {
            rtl::BatchStats stats;
            const std::size_t m = std::min(chunk, ptrs.size() - i);
            batched.compiled()->runBatch(ptrs.data() + i, m, got.data() + i,
                                         &stats);
            for (const rtl::BatchFsmStats &f : stats.fsms) {
                totals.checks += f.branchChecks;
                totals.mispredicts += f.mispredicts;
                totals.lockstep += f.lockstepLaneItems;
                totals.lanes += f.lockstepLaneItems + f.demotedLaneItems +
                    f.scalarLaneItems;
            }
        }
        span.work = items;
    }
    for (std::size_t i = 0; i < sample.size(); ++i)
        if (got[i].cycles != want[i].cycles ||
            got[i].energyUnits != want[i].energyUnits)
            report.fail("batch kernel differs from the scalar run on " + name);

    // core: offline training, and its instrumented simulation alone.
    {
        Tracer::Scope span(tracer, "core.train", root);
        core::buildPredictor(design, twin.work.train, {});
        span.work = 1;
    }
    const rtl::AnalysisReport analysis = rtl::analyze(design);
    {
        Tracer::Scope span(tracer, "rtl.train_sim", root);
        core::collectDataset(design, analysis.features, twin.work.train);
        span.work = 1;
    }

    // sim: the workload's whole stream through prepare(), cold from an
    // empty cache and then warm, in chunks of the batch occupancy.
    const auto prepare_all = [&](const char *span_name) {
        Tracer::Scope span(tracer, span_name, root);
        for (std::size_t i = 0; i < stream.jobs.size(); i += chunk) {
            const std::vector<JobInput> part(
                stream.jobs.begin() + static_cast<std::ptrdiff_t>(i),
                stream.jobs.begin() +
                    static_cast<std::ptrdiff_t>(
                        std::min(i + chunk, stream.jobs.size())));
            twin.engine->prepare(part, &predictor);
        }
        span.work = stream.jobs.size();
    };
    sim::JobCache::global().clear();
    prepare_all("sim.prepare_cold");
    const sim::JobCache::Stats cold = sim::JobCache::global().stats();
    totals.hits += cold.hits;
    totals.misses += cold.misses;
    totals.evictions += cold.evictions;
    prepare_all("sim.prepare_warm");

    // core: controller replay over the prepared records.
    const std::vector<core::PreparedJob> records =
        twin.engine->prepare(sample, &predictor);
    {
        const double f0 = twin.accel->nominalFrequencyHz();
        core::DvfsModelConfig dvfs;
        core::ConstantController baseline(twin.table->nominalIndex());
        core::PredictiveController predictive(*twin.table, f0, dvfs);
        core::OracleController oracle(*twin.table, f0, dvfs);
        Tracer::Scope span(tracer, "core.replay", root);
        for (core::DvfsController *c :
             {static_cast<core::DvfsController *>(&baseline),
              static_cast<core::DvfsController *>(&predictive),
              static_cast<core::DvfsController *>(&oracle)})
            twin.engine->run(*c, records);
        span.work = 3 * records.size();
    }

    // sim: JobCache probe and insert on a private cache.
    sim::JobCache cache;
    sim::CachedJob value;
    {
        Tracer::Scope span(tracer, "sim.cache_lookup_miss", root);
        for (const JobInput &job : sample)
            cache.lookup(twin.streamKey, job, value);
        span.work = sample.size();
    }
    {
        Tracer::Scope span(tracer, "sim.cache_insert", root);
        for (std::size_t i = 0; i < sample.size(); ++i)
            cache.insert(twin.streamKey, sample[i],
                         {records[i].cycles, records[i].energyUnits,
                          records[i].sliceCycles,
                          records[i].sliceEnergyUnits,
                          records[i].predictedCycles});
        span.work = sample.size();
    }
    std::size_t hits = 0;
    {
        Tracer::Scope span(tracer, "sim.cache_lookup_hit", root);
        for (const JobInput &job : sample)
            hits += cache.lookup(twin.streamKey, job, value) ? 1 : 0;
        span.work = sample.size();
    }
    if (hits != sample.size())
        report.lines.push_back("private cache missed inserted jobs on " +
                               name);

    // sim: a cold, unshared Experiment.
    sim::JobCache::global().clear();
    sim::clearSharedStreams();
    {
        sim::ExperimentOptions opts;
        opts.shareStreams = false;
        Tracer::Scope span(tracer, "sim.experiment_build", root);
        const sim::Experiment exp(name, opts);
        span.work = 1;
    }

    // serve: frame encode and decode of each request and its reply.
    std::vector<serve::PredictMsg> msgs(sample.size());
    std::vector<serve::PredictReplyMsg> replies(sample.size());
    for (std::size_t i = 0; i < sample.size(); ++i) {
        msgs[i].streamId = 1;
        msgs[i].requestId = i + 1;
        msgs[i].job = sample[i];
        replies[i] = {i + 1, records[i].cycles, records[i].energyUnits,
                      records[i].sliceCycles, records[i].sliceEnergyUnits,
                      records[i].predictedCycles};
    }
    std::vector<std::vector<std::uint8_t>> req(sample.size()),
        rep(sample.size());
    {
        Tracer::Scope span(tracer, "serve.encode", root);
        for (std::size_t i = 0; i < sample.size(); ++i) {
            req[i] = serve::encodeFrame(serve::MsgType::Predict,
                                        serve::encodePredict(msgs[i]));
            rep[i] = serve::encodeFrame(serve::MsgType::PredictReply,
                                        serve::encodePredictReply(replies[i]));
        }
        span.work = sample.size();
    }
    std::size_t decoded = 0;
    {
        Tracer::Scope span(tracer, "serve.decode", root);
        for (std::size_t i = 0; i < sample.size(); ++i) {
            serve::Frame frame;
            serve::FrameDecoder in;
            in.feed(req[i].data(), req[i].size());
            serve::PredictMsg msg;
            const bool req_ok =
                in.next(frame) == serve::FrameDecoder::Status::Ready &&
                serve::decodePredict(frame.payload, msg);
            serve::FrameDecoder out;
            out.feed(rep[i].data(), rep[i].size());
            serve::PredictReplyMsg reply;
            const bool rep_ok =
                out.next(frame) == serve::FrameDecoder::Status::Ready &&
                serve::decodePredictReply(frame.payload, reply);
            decoded += req_ok && rep_ok &&
                    msg.job.items.size() == sample[i].items.size() &&
                    replyMatches(reply, records[i])
                ? 1
                : 0;
        }
        span.work = sample.size();
    }
    if (decoded != sample.size())
        report.fail("frame round trip lost data on " + name);
}

} // namespace

void
timeLayers(const std::vector<LayerStream> &streams,
           const LayerContext &context, Tracer &tracer, Report &report)
{
    const std::uint64_t root = tracer.begin("layers");
    Totals totals;
    for (const LayerStream &stream : streams)
        timeStream(stream, context, root, tracer, totals, report);
    tracer.end(root, streams.size());

    const auto per = [&](const char *span, double scale) {
        const std::uint64_t work = tracer.totalWork(span);
        return work == 0 ? 0.0
                         : tracer.totalSeconds(span) * scale /
                static_cast<double>(work);
    };
    auto &m = report.perLayer;
    m["rtl.run_ns_per_item"] = per("rtl.run", 1e9);
    m["rtl.slice_ns_per_item"] = per("rtl.slice", 1e9);
    m["rtl.batch_ns_per_item"] = per("rtl.batch", 1e9);
    m["rtl.batch_mispredict_rate"] =
        totals.checks == 0 ? 0.0
                           : static_cast<double>(totals.mispredicts) /
            static_cast<double>(totals.checks);
    m["rtl.batch_lane_occupancy"] =
        totals.lanes == 0 ? 1.0
                          : static_cast<double>(totals.lockstep) /
            static_cast<double>(totals.lanes);
    m["rtl.verify_ms"] = per("rtl.verify", 1e3);
    m["rtl.speculate_ms"] = per("rtl.speculate", 1e3);
    m["core.train_s"] = per("core.train", 1.0);
    m["rtl.train_sim_s"] = per("rtl.train_sim", 1.0);
    m["core.replay_ns_per_job"] = per("core.replay", 1e9);
    m["sim.prepare_cold_us_per_job"] = per("sim.prepare_cold", 1e6);
    m["sim.prepare_warm_us_per_job"] = per("sim.prepare_warm", 1e6);
    m["sim.cache_lookup_hit_ns"] = per("sim.cache_lookup_hit", 1e9);
    m["sim.cache_lookup_miss_ns"] = per("sim.cache_lookup_miss", 1e9);
    m["sim.cache_insert_ns"] = per("sim.cache_insert", 1e9);
    m["sim.cache_hit_rate"] =
        totals.hits + totals.misses == 0
        ? 0.0
        : static_cast<double>(totals.hits) /
            static_cast<double>(totals.hits + totals.misses);
    m["sim.cache_evictions"] = static_cast<double>(totals.evictions);
    m["sim.experiment_build_s"] = per("sim.experiment_build", 1.0);
    m["serve.encode_ns"] = per("serve.encode", 1e9);
    m["serve.decode_ns"] = per("serve.decode", 1e9);

    // The in-process cost of one served request: its frames both ways
    // and its share of a cold prepare() of the workload's own stream.
    const double attributed_us = (m["serve.encode_ns"] +
                                  m["serve.decode_ns"]) / 1000.0 +
        m["sim.prepare_cold_us_per_job"];
    m["serve.unattributed_us"] =
        context.clientP50Us > 0.0 ? context.clientP50Us - attributed_us : 0.0;

    std::ostringstream os;
    os << "layer self times (s):";
    for (const auto &[name, self] : tracer.selfSeconds())
        if (name != "layers")
            os << " " << name << "=" << self;
    report.lines.push_back(os.str());
    if (context.clientP50Us > 0.0) {
        std::ostringstream br;
        br << "per request at the reference rung: client p50 "
           << context.clientP50Us << " us = encode+decode "
           << (m["serve.encode_ns"] + m["serve.decode_ns"]) / 1000.0
           << " us + prepare " << m["sim.prepare_cold_us_per_job"]
           << " us + unattributed " << m["serve.unattributed_us"] << " us ("
           << 100.0 * m["serve.unattributed_us"] / context.clientP50Us
           << "%)";
        report.lines.push_back(br.str());
    }
}

} // namespace perfbench
