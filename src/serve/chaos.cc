#include "serve/chaos.hh"

#include <algorithm>
#include <chrono>
#include <thread>

#include "util/random.hh"

namespace predvfs {
namespace serve {

namespace {

class ChaosConnection : public Connection
{
  public:
    ChaosConnection(std::unique_ptr<Connection> inner_,
                    const ChaosPlan &plan_,
                    std::uint64_t connection_index)
        : inner(std::move(inner_)), plan(plan_),
          rng(util::Rng(plan_.seed).split(connection_index)),
          readRng(util::Rng(plan_.seed).split(connection_index).split(1))
    {
    }

    std::size_t read(void *buf, std::size_t max) override
    {
        if (max > 1 && readRng.bernoulli(plan.shortReadRate)) {
            const std::size_t cap = static_cast<std::size_t>(
                readRng.uniformInt(1, 7));
            max = std::min(max, cap);
        }
        return inner->read(buf, max);
    }

    bool writeAll(const void *buf, std::size_t n) override
    {
        const auto *p = static_cast<const std::uint8_t *>(buf);
        if (n == 0)
            return inner->writeAll(buf, 0);

        if (rng.bernoulli(plan.disconnectRate)) {
            // Sever mid-write: deliver a strict prefix, drop the
            // rest, and close. The peer sees a clean byte stream that
            // ends inside a frame.
            const std::size_t sent = static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<std::int64_t>(n) - 1));
            if (sent > 0)
                inner->writeAll(p, sent);
            inner->close();
            return false;
        }

        if (rng.bernoulli(plan.delayFlushRate) && n > 1) {
            // Send a head, stall, then send the non-empty tail: the
            // peer sees a frame stop short and must wait for the rest.
            const std::size_t keep = static_cast<std::size_t>(
                rng.uniformInt(1, static_cast<std::int64_t>(n) - 1));
            const std::size_t head = n - keep;
            if (head > 0 && !inner->writeAll(p, head))
                return false;
            std::this_thread::sleep_for(
                std::chrono::microseconds(rng.uniformInt(1, 200)));
            return inner->writeAll(p + head, keep);
        }

        if (rng.bernoulli(plan.partialWriteRate) && n > 1) {
            // Fragment into 2–4 chunks at random cut points; same
            // bytes, same order, different packet boundaries.
            const int chunks = static_cast<int>(rng.uniformInt(2, 4));
            std::size_t off = 0;
            for (int c = 0; c < chunks && off < n; ++c) {
                const std::size_t remaining = n - off;
                std::size_t take = remaining;
                if (c + 1 < chunks && remaining > 1)
                    take = static_cast<std::size_t>(rng.uniformInt(
                        1, static_cast<std::int64_t>(remaining) - 1));
                if (c + 1 == chunks)
                    take = remaining;
                if (!inner->writeAll(p + off, take))
                    return false;
                off += take;
            }
            return true;
        }

        return inner->writeAll(p, n);
    }

    void close() override { inner->close(); }

  private:
    std::unique_ptr<Connection> inner;
    ChaosPlan plan;
    util::Rng rng;      //!< Write-side decisions.
    util::Rng readRng;  //!< Read-side decisions.
};

} // namespace

std::unique_ptr<Connection>
chaosWrap(std::unique_ptr<Connection> inner, const ChaosPlan &plan,
          std::uint64_t connection_index)
{
    return std::make_unique<ChaosConnection>(std::move(inner), plan,
                                             connection_index);
}

} // namespace serve
} // namespace predvfs
