/** @file The machine descriptor written into every result. */

#include <fstream>
#include <sstream>
#include <thread>

#include <sched.h>
#include <sys/utsname.h>

#include "runner.hh"

namespace perfbench {

std::string
machineJson()
{
    std::string cpu = "unknown";
    std::ifstream info("/proc/cpuinfo");
    for (std::string line; std::getline(info, line);) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos)
                cpu = line.substr(colon + 2);
            break;
        }
    }
    cpu_set_t set;
    CPU_ZERO(&set);
    const int usable =
        sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 0;
    struct utsname uts = {};
    uname(&uts);

    std::ostringstream os;
    os << "{\"nproc\": " << usable
       << ", \"hardware_threads\": " << std::thread::hardware_concurrency()
       << ", \"cpu_model\": " << jsonString(cpu)
       << ", \"kernel\": " << jsonString(std::string(uts.release))
       << ", \"compiler\": " << jsonString(PERFBENCH_CXX_COMPILER)
       << ", \"cxx_flags\": " << jsonString(PERFBENCH_CXX_FLAGS)
       << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
       << ", \"PREDVFS_NATIVE_VECTOR\": "
       << jsonString(PERFBENCH_NATIVE_VECTOR) << "}";
    return os.str();
}

} // namespace perfbench
