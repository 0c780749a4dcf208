#include "common/bench_main.hh"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>
#include <vector>

#include "common/file.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/parallel/parallel.hh"

namespace hsipc::bench
{

namespace
{

/**
 * Per-process output state.  Sweep benches may run simulations on
 * worker threads, but emit()/record()/note() are main-thread-only
 * (rendering happens after the workers return their values), so this
 * needs no locking.
 */
struct State
{
    std::string name;
    std::string jsonPath;
    int jobs = 1;
    bool profile = false;
    std::chrono::steady_clock::time_point start;
    std::vector<std::string> tables; //!< pre-rendered JSON objects
    std::vector<std::pair<std::string, double>> scalars;
};

State &
state()
{
    static State s;
    return s;
}

} // namespace

void
init(int argc, char **argv, const std::string &benchName)
{
    state().name = benchName;
    state().start = std::chrono::steady_clock::now();
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0) {
            if (i + 1 >= argc)
                hsipc_fatal("--json requires a path argument");
            state().jsonPath = argv[++i];
        } else if (std::strcmp(argv[i], "--jobs") == 0) {
            if (i + 1 >= argc)
                hsipc_fatal("--jobs requires a thread count");
            char *end = nullptr;
            const long n = std::strtol(argv[++i], &end, 10);
            if (end == nullptr || *end != '\0' || n < 0)
                hsipc_fatal(std::string("invalid --jobs value '") +
                            argv[i] + "'");
            state().jobs = n == 0 ? parallel::defaultJobs()
                                  : static_cast<int>(n);
        } else if (std::strcmp(argv[i], "--profile") == 0) {
            state().profile = true;
        } else {
            hsipc_fatal(std::string("unknown argument '") + argv[i] +
                        "' (supported: --json <path>, --jobs <n>, "
                        "--profile)");
        }
    }
}

int
jobs()
{
    return state().jobs;
}

const std::string &
jsonPath()
{
    return state().jsonPath;
}

bool
profile()
{
    return state().profile;
}

std::string
profilePath()
{
    const State &s = state();
    if (s.jsonPath.empty())
        return s.name + "_engine_profile.json";
    const std::string suffix = ".json";
    std::string base = s.jsonPath;
    if (base.size() > suffix.size() &&
        base.compare(base.size() - suffix.size(), suffix.size(),
                     suffix) == 0)
        base.resize(base.size() - suffix.size());
    return base + "_engine_profile.json";
}

void
emit(const TextTable &t)
{
    std::printf("%s", t.render().c_str());
    state().tables.push_back(t.renderJson());
}

void
record(const TextTable &t)
{
    state().tables.push_back(t.renderJson());
}

void
note(const std::string &name, double value)
{
    state().scalars.emplace_back(name, value);
}

int
finish()
{
    State &s = state();
    if (s.jsonPath.empty())
        return 0;
    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - s.start)
            .count();
    std::string doc = "{\"bench\": " + jsonString(s.name) +
                      ",\n \"wall_ms\": " + jsonNumber(wall_ms) +
                      ",\n \"tables\": [";
    for (std::size_t i = 0; i < s.tables.size(); ++i)
        doc += (i ? ",\n  " : "\n  ") + s.tables[i];
    doc += s.tables.empty() ? "]" : "\n ]";
    doc += ",\n \"scalars\": {";
    for (std::size_t i = 0; i < s.scalars.size(); ++i) {
        doc += (i ? ", " : "") + jsonString(s.scalars[i].first) +
               ": " + jsonNumber(s.scalars[i].second);
    }
    doc += "}\n}\n";
    writeFileOrDie(s.jsonPath, doc);
    return 0;
}

} // namespace hsipc::bench
