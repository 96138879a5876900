/**
 * @file
 * The repository benchmark (see README.md beside this file).
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--rev REV] [--trace-out FILE] [--inject-mismatch]
 *
 * Runs one workload in this single-threaded process for about S
 * seconds: it sets the workload up, then runs its timed body (a pass)
 * at least twice, checking every output image against the host
 * reference interpreter after each pass, outside the timed region.
 * Host times are CPU seconds of this process (CLOCK_PROCESS_CPUTIME_ID),
 * which leave out time the process spends descheduled, scaled by a
 * calibration kernel timed just before and after each timed region:
 * on a shared host the speed the process gets moves by up to 1.5x for
 * seconds to minutes at a time.  cpu_s sums, over the ops of the body,
 * each op's median CPU time across the passes times kCalNominalS over
 * the median calibration time around that op.  With --trace 1 the ops
 * of each pass alternate between traced and untraced, so every op is
 * traced in every second pass; a traced op records a span around each
 * call into a layer's public entry point.
 *
 * The last line of stdout is the result object
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * with metric values by name: the end-to-end metrics (--trace 0) or
 * the per-layer metrics (--trace 1).  run.py attaches the units
 * BENCHMARK.json declares.  The line before it carries host facts and
 * the values that must repeat exactly for a seed.
 */
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/benchmarks.h"
#include "common/histogram.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/rng.h"
#include "compiler/codegen.h"
#include "compiler/reference.h"
#include "energy/energy_model.h"
#include "fleet/fleet.h"
#include "func/estimator.h"
#include "func/func_runtime.h"
#include "runtime/runtime.h"
#include "service/load_gen.h"

using namespace ipim;

namespace {

using Clock = std::chrono::steady_clock;

f64
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<f64>(Clock::now() - t0).count();
}

/** CPU seconds used so far by this process, over all its threads. */
f64
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return f64(ts.tv_sec) + 1e-9 * f64(ts.tv_nsec);
}

/** CPU seconds of calibrate() on the host speed figures are scaled to. */
constexpr f64 kCalNominalS = 0.02;

/**
 * Calibration kernel: fills a 256 KiB array from a fixed xorshift
 * stream and sorts it, four times; returns its CPU seconds.  It is the
 * benchmark's own code, so no change to the program moves it.  What
 * moves it is how fast the host runs this process: on a shared host
 * that changes by up to 1.5x for seconds to minutes at a time, for
 * compile and simulation code alike, and this kernel follows it.
 */
f64
calibrate()
{
    static std::vector<u32> data(1 << 16);
    u64 x = 88172645463325252ull;
    f64 t0 = cpuSeconds();
    for (int r = 0; r < 4; ++r) {
        for (u32 &v : data) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            v = u32(x);
        }
        std::sort(data.begin(), data.end());
    }
    return cpuSeconds() - t0;
}

/** One timed region: its CPU seconds and the calibration kernel's
 *  mean time just before and just after it. */
struct Timing
{
    f64 raw = 0, cal = 0;

    /** CPU seconds scaled to the nominal host speed. */
    f64 scaled() const { return raw * kCalNominalS / cal; }
};

/** Run @p f between two calibration runs and time it. */
template <typename F>
Timing
timeScaled(F &&f)
{
    f64 before = calibrate();
    f64 t0 = cpuSeconds();
    f();
    f64 raw = cpuSeconds() - t0;
    return {raw, 0.5 * (before + calibrate())};
}

// ---------------------------------------------------------------- spans

/** One timed call: a layer boundary, an op or a set-up. */
struct Span
{
    std::string layer; ///< "apps", "compiler", ..., or "op"/"setup"
    std::string name;  ///< pipeline or op label
    i64 op = -1;       ///< op id within the pass, -1 outside ops
    i64 parent = -1;   ///< index of the enclosing span, -1 at top level
    f64 t0 = 0, t1 = 0; ///< CPU seconds since the log was made
};

/**
 * In-memory span log.  Off, scope() runs the call and records nothing;
 * on, it brackets the call with CPU clock reads and nests spans by call
 * order (the process is single-threaded).
 */
class SpanLog
{
  public:
    SpanLog() : epoch_(cpuSeconds()) {}

    void setOn(bool on) { on_ = on; }
    const std::vector<Span> &spans() const { return spans_; }

    /** Trace the odd ops of even passes and the even ops of odd ones,
     *  or nothing when @p enabled is false. */
    void
    schedule(bool enabled, u64 pass)
    {
        enabled_ = enabled;
        pass_ = pass;
    }
    bool tracesOp(i64 op) const { return enabled_ && (u64(op) + pass_) % 2; }

    template <typename F>
    decltype(auto)
    scope(const std::string &layer, const std::string &name, i64 op,
          F &&f)
    {
        if (!on_)
            return f();
        Guard g(*this, layer, name, op);
        return f();
    }

    /** Self time (span minus its direct children) of spans [from, to)
     *  summed per key; key is layer, and layer + "." + name for compiler
     *  spans. */
    std::map<std::string, f64>
    selfTimes(size_t from, size_t to) const
    {
        std::vector<f64> self(spans_.size(), 0.0);
        for (size_t i = from; i < to; ++i) {
            f64 d = spans_[i].t1 - spans_[i].t0;
            self[i] += d;
            if (spans_[i].parent >= 0)
                self[size_t(spans_[i].parent)] -= d;
        }
        std::map<std::string, f64> out;
        for (size_t i = from; i < to; ++i) {
            out[spans_[i].layer] += self[i];
            if (spans_[i].layer == "compiler")
                out["compiler." + spans_[i].name] += self[i];
        }
        return out;
    }

    /** Chrome trace_event JSON ("X" complete events, microseconds). */
    void
    writeChrome(std::ostream &os) const
    {
        JsonWriter j;
        j.key("traceEvents").beginArray();
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            j.beginObject();
            j.field("name", s.layer + ":" + s.name)
                .field("cat", s.layer)
                .field("ph", "X")
                .field("ts", s.t0 * 1e6)
                .field("dur", (s.t1 - s.t0) * 1e6)
                .field("pid", 1)
                .field("tid", 1);
            j.key("args").beginObject();
            j.field("span", u64(i)).field("op", s.op).field("parent",
                                                             s.parent);
            j.endObject();
            j.endObject();
        }
        j.endArray();
        os << j.finish() << '\n';
    }

  private:
    struct Guard
    {
        Guard(SpanLog &log, const std::string &layer,
              const std::string &name, i64 op)
            : log_(log), idx_(log.spans_.size())
        {
            i64 parent = log.open_.empty() ? -1 : i64(log.open_.back());
            log.spans_.push_back({layer, name, op, parent, 0, 0});
            log.open_.push_back(idx_);
            log.spans_[idx_].t0 = cpuSeconds() - log.epoch_;
        }
        ~Guard()
        {
            log_.spans_[idx_].t1 = cpuSeconds() - log_.epoch_;
            log_.open_.pop_back();
        }
        Guard(const Guard &) = delete;
        Guard &operator=(const Guard &) = delete;

        SpanLog &log_;
        size_t idx_;
    };

    f64 epoch_;
    bool on_ = false;
    bool enabled_ = false;
    u64 pass_ = 0;
    std::vector<Span> spans_;
    std::vector<size_t> open_;
};

// ------------------------------------------------------- pass accounting

/** A pipeline output image and the input coordinates of its reference. */
struct Output
{
    std::string pipeline;
    int width = 0, height = 0;
    u64 seed = 0;
    Image image;
};

/** Everything one timed pass produced. */
struct PassResult
{
    u64 attempted = 0; ///< ops (requests) offered
    u64 threw = 0;     ///< ops that raised FatalError/PanicError
    std::vector<std::string> errors;
    std::vector<Output> outputs;   ///< checked after the pass
    std::vector<f64> latencies;    ///< simulated cycles per request
    /// Per op, in op order: its timing, whether it was traced, and the
    /// range of its spans in the log.
    std::vector<Timing> opTime;
    std::vector<bool> opTraced;
    std::vector<std::pair<size_t, size_t>> opSpans;
    /// Simulator/compiler/fleet counts; deterministic for a seed.
    std::map<std::string, f64> counts;

    /** Run op @p f (given its op id) inside an "op" span and time it,
     *  tracing it when the log's schedule says so. */
    template <typename F>
    void
    timeOp(SpanLog &log, const std::string &label, F &&f)
    {
        i64 id = i64(opTime.size());
        bool traced = log.tracesOp(id);
        size_t from = log.spans().size();
        log.setOn(traced);
        opTime.push_back(timeScaled(
            [&] { log.scope("op", label, id, [&] { f(id); }); }));
        log.setOn(false);
        opTraced.push_back(traced);
        opSpans.emplace_back(from, log.spans().size());
    }

    /** Record that op @p label threw inside @p layer. */
    void
    fail(const std::string &label, const std::string &layer,
         const std::exception &e)
    {
        ++threw;
        counts[layer + ".failed"] += 1;
        errors.push_back(label + ": " + e.what());
    }
};

/** Nearest-rank percentile over @p v (same rule as LatencyHistogram). */
f64
percentile(std::vector<f64> v, f64 p)
{
    if (v.empty())
        return 0.0;
    LatencyHistogram h;
    for (f64 x : v)
        h.add(x);
    return h.percentile(p);
}

HardwareConfig
geometry(u32 cubes, u32 vaults, u32 pgs, u32 pes)
{
    HardwareConfig cfg;
    cfg.cubes = cubes;
    cfg.vaultsPerCube = vaults;
    cfg.pgsPerVault = pgs;
    cfg.pesPerPg = pes;
    cfg.meshCols = vaults >= 4 ? 4 : vaults;
    cfg.validate();
    return cfg;
}

std::string
label(const std::string &pipeline, const HardwareConfig &cfg)
{
    return pipeline + "@" + std::to_string(cfg.cubes) + "x" +
           std::to_string(cfg.vaultsPerCube) + "x" +
           std::to_string(cfg.pgsPerVault) + "x" +
           std::to_string(cfg.pesPerPg);
}

u64
spilledRegs(const CompiledPipeline &cp)
{
    u64 n = 0;
    for (const CompiledKernel &k : cp.kernels)
        n += k.backend.spilledRegs;
    return n;
}

/** A workload: set up afresh, then run one timed pass. */
class Workload
{
  public:
    virtual ~Workload() = default;
    virtual void setup(SpanLog &log) = 0;
    virtual PassResult pass(SpanLog &log) = 0;
};

// ---------------------------------------------------------- oneshot_func

/**
 * The ten Table II pipelines at 64x32, each compiled cold, cost-modelled
 * and interpreted once on a fresh FuncDevice, on the paper cube and on
 * the smallest sweep geometry: what `ipim --bench NAME --backend func`
 * costs a user.  The compiler is in charge.
 */
class OneshotFunc : public Workload
{
  public:
    explicit OneshotFunc(u64 seed) : seed_(seed) {}

    void
    setup(SpanLog &log) override
    {
        apps_.clear();
        for (const std::string &n : allBenchmarkNames())
            apps_.push_back(log.scope("apps", n, -1, [&] {
                return makeBenchmark(n, kW, kH, seed_);
            }));
    }

    PassResult
    pass(SpanLog &log) override
    {
        PassResult r;
        for (const HardwareConfig &cfg :
             {geometry(1, 16, 8, 4), geometry(1, 2, 2, 2)}) {
            for (const BenchmarkApp &app : apps_) {
                std::string lab = label(app.name, cfg);
                ++r.attempted;
                r.timeOp(log, lab,
                         [&](i64 op) { runOp(log, r, app, cfg, lab, op); });
            }
        }
        return r;
    }

  private:
    static constexpr int kW = 64, kH = 32;

    void
    runOp(SpanLog &log, PassResult &r, const BenchmarkApp &app,
          const HardwareConfig &cfg, const std::string &lab, i64 op)
    {
        const char *stage = "compiler";
        try {
            CompiledPipeline cp = log.scope("compiler", app.name, op, [&] {
                return compilePipeline(app.def, cfg);
            });
            r.counts["static_insts"] += f64(cp.totalInstructions());
            r.counts["compiler.spilled_regs"] += f64(spilledRegs(cp));
            stage = "analysis";
            LatencyEstimator est;
            f64 cycles = log.scope("analysis", app.name, op, [&] {
                f64 c = 0;
                for (f64 k : est.staticEstimates(cp))
                    c += k;
                return c;
            });
            r.counts["sim_cycles"] += cycles;
            r.latencies.push_back(cycles);
            stage = "func";
            FuncLaunchResult res = log.scope("func", app.name, op, [&] {
                FuncDevice dev(cfg);
                return funcLaunchOnDevice(dev, cp, app.inputs, &est);
            });
            r.counts["func.insts"] += f64(res.executedInsts);
            r.outputs.push_back(
                {app.name, kW, kH, seed_, std::move(res.output)});
        } catch (const FatalError &e) {
            r.fail(lab, stage, e);
        } catch (const PanicError &e) {
            r.fail(lab, stage, e);
        }
    }

    u64 seed_;
    std::vector<BenchmarkApp> apps_;
};

// ------------------------------------------------------------ cycle_sync

/**
 * Cycle-accurate simulation with fast-forward on, one reused Device,
 * programs compiled in set-up.  cycle_sync runs Histogram on a 2-cube
 * device: barrier stalls and SERDES traffic, where fast-forward skips
 * most cycles.
 */
class CycleSim : public Workload
{
  public:
    CycleSim(u64 seed, HardwareConfig cfg, std::vector<std::string> names)
        : seed_(seed), cfg_(cfg), names_(std::move(names))
    {
    }

    void
    setup(SpanLog &log) override
    {
        apps_.clear();
        compiled_.clear();
        for (const std::string &n : names_) {
            apps_.push_back(log.scope("apps", n, -1, [&] {
                return makeBenchmark(n, kW, kH, seed_);
            }));
            compiled_.push_back(log.scope("compiler", n, -1, [&] {
                return compilePipeline(apps_.back().def, cfg_);
            }));
        }
        dev_ = std::make_unique<Device>(cfg_);
        dev_->setFastForward(true);
        dev_->setThreads(1);
    }

    PassResult
    pass(SpanLog &log) override
    {
        PassResult r;
        for (size_t i = 0; i < apps_.size(); ++i) {
            const BenchmarkApp &app = apps_[i];
            const CompiledPipeline &cp = compiled_[i];
            std::string lab = label(app.name, cfg_);
            ++r.attempted;
            r.counts["static_insts"] += f64(cp.totalInstructions());
            r.counts["compiler.spilled_regs"] += f64(spilledRegs(cp));
            r.timeOp(log, lab, [&](i64 op) {
                try {
                    LaunchResult res = log.scope("sim", app.name, op, [&] {
                        return launchOnDevice(*dev_, cp, app.inputs);
                    });
                    record(r, res);
                    r.outputs.push_back(
                        {app.name, kW, kH, seed_, std::move(res.output)});
                } catch (const FatalError &e) {
                    r.fail(lab, "sim", e);
                } catch (const PanicError &e) {
                    r.fail(lab, "sim", e);
                }
            });
        }
        return r;
    }

  private:
    static constexpr int kW = 384, kH = 216;

    /** Fold one launch's device statistics into the pass counts. */
    void
    record(PassResult &r, const LaunchResult &res) const
    {
        const StatsRegistry &st = dev_->stats();
        std::map<std::string, f64> &c = r.counts;
        c["sim_cycles"] += f64(res.cycles);
        r.latencies.push_back(f64(res.cycles));
        c["sim.energy_uj"] +=
            computeEnergy(cfg_, st, res.cycles).total() * 1e6;
        c["sim.insts"] += f64(res.totalIssued);
        c["sim.vault_cycles"] += f64(res.cycles) * dev_->totalVaults();
        c["sim.ffwd_jumps"] += f64(dev_->ffwdJumps());
        c["sim.ffwd_skipped"] += f64(dev_->ffwdSkippedCycles());
        IssueAccounting acc;
        for (const IssueAccounting &a : res.vaultAccounting)
            acc.accumulate(a);
        c["sim.acc.cycles"] += f64(acc.cycles);
        c["sim.acc.issued"] += f64(acc.issued);
        c["sim.acc.hazard"] += f64(acc.hazard);
        c["sim.acc.barrier"] += f64(acc.barrier);
        c["sim.acc.struct"] += f64(acc.structStall);
        c["sim.acc.drain"] += f64(acc.drain);
        c["sim.acc.bubble"] += f64(acc.bubble);
        c["sim.acc.halted"] += f64(acc.halted());
        c["sim.serdes_packets"] += st.get("serdes.packets");
        c["dram.row_hits"] += st.get("dram.rowHit");
        c["dram.row_misses"] += st.get("dram.rowMiss");
        c["dram.acts"] += st.get("dram.act");
        c["dram.refs"] += st.get("dram.ref");
        c["noc.hops"] += st.get("noc.hops");
        c["noc.blocked"] += st.get("noc.blocked");
    }

    u64 seed_;
    HardwareConfig cfg_;
    std::vector<std::string> names_;
    std::vector<BenchmarkApp> apps_;
    std::vector<CompiledPipeline> compiled_;
    std::unique_ptr<Device> dev_;
};

// -------------------------------------------------------------- fleet_mix

/**
 * Open-loop Poisson stream of 3000 requests at 150k req/s of virtual
 * time from two tenants onto 4 func-backend devices of the `ipim serve`
 * default geometry, with batching, preemption and p99 shedding on: the
 * only workload where routing, queues, fair share, checkpointing,
 * batching, shedding, the program cache and per-request interpretation
 * run.  The rate keeps the fleet near 70% busy, where every mechanism
 * still fires but tail latency does not swing with the seed the way it
 * does at saturation.  Input seeds come from a pool of kSeedPool per
 * run, so each reference image is computed once per (pipeline, seed).
 */
class FleetMix : public Workload
{
  public:
    static constexpr u32 kRequests = 3000;
    static constexpr f64 kRatePerSec = 150'000;
    static constexpr int kW = 128, kH = 64;
    static constexpr u64 kSeedPool = 4;
    static constexpr f64 kSloCycles = 500'000; ///< 0.5 ms at 1 GHz

    explicit FleetMix(u64 seed) : seed_(seed) {}

    void
    setup(SpanLog &log) override
    {
        WorkloadSpec spec;
        spec.pipelines = {"Blur", "Downsample", "Histogram", "Interpolate",
                          "Upsample"};
        spec.ratePerSec = kRatePerSec;
        spec.requests = kRequests;
        spec.seed = seed_;
        spec.tenants = {{"gold", 2.0, 1, 1.0}, {"bronze", 1.0, 0, 3.0}};
        reqs_ = log.scope("service", "generateWorkload", -1,
                          [&] { return generateWorkload(spec); });
        // Exactly equal pipeline shares per tenant, in a seeded order,
        // so the work a run offers does not drift with the seed.
        std::vector<std::vector<size_t>> byTenant(spec.tenants.size());
        for (size_t i = 0; i < reqs_.size(); ++i)
            byTenant[reqs_[i].tenant].push_back(i);
        for (size_t t = 0; t < byTenant.size(); ++t) {
            std::vector<size_t> &idx = byTenant[t];
            std::vector<std::string> mix;
            for (size_t k = 0; k < idx.size(); ++k)
                mix.push_back(spec.pipelines[k % spec.pipelines.size()]);
            SplitMix64 rng(splitMix64(seed_ ^ (t + 1)));
            for (size_t k = mix.size(); k > 1; --k)
                std::swap(mix[k - 1], mix[rng.next() % k]);
            for (size_t k = 0; k < idx.size(); ++k)
                reqs_[idx[k]].pipeline = mix[k];
        }
        inputSeed_.clear();
        for (ServeRequest &q : reqs_) {
            q.inputSeed = splitMix64(seed_ + q.inputSeed % kSeedPool);
            inputSeed_[q.id] = q.inputSeed;
        }

        FleetConfig fc;
        fc.hw = geometry(2, 4, 2, 2);
        fc.devices = 4;
        fc.width = kW;
        fc.height = kH;
        fc.backend = "func";
        fc.batching = true;
        fc.preempt = true;
        fc.shedP99Cycles = Cycle(kSloCycles);
        fc.tenants = spec.tenants;
        fc.keepOutputs = true;
        server_ = std::make_unique<FleetServer>(fc);
    }

    PassResult
    pass(SpanLog &log) override
    {
        PassResult r;
        r.attempted = reqs_.size();
        FleetReport rep;
        r.timeOp(log, "FleetServer::run", [&](i64 op) {
            try {
                rep = log.scope("fleet", "run", op,
                                [&] { return server_->run(reqs_); });
            } catch (const FatalError &e) {
                r.fail("FleetServer::run", "fleet", e);
            } catch (const PanicError &e) {
                r.fail("FleetServer::run", "fleet", e);
            }
        });
        if (r.threw) {
            // A fatal ends the whole fleet run: every request is lost.
            r.threw = r.attempted;
            r.counts["fleet.failed"] = f64(r.attempted);
            return r;
        }
        std::map<std::string, f64> &c = r.counts;
        u64 late = 0;
        for (FleetRequestRecord &rec : rep.records) {
            if (rec.shed)
                continue;
            r.latencies.push_back(f64(rec.totalCycles()));
            late += f64(rec.totalCycles()) > kSloCycles;
            r.outputs.push_back({rec.pipeline, kW, kH,
                                 inputSeed_.at(rec.id),
                                 std::move(rec.output)});
        }
        Cycle busy = 0;
        u64 hits = 0, compiles = 0;
        for (const FleetReport::DeviceReport &d : rep.devices) {
            busy += d.busyCycles;
            hits += d.cacheHits;
            compiles += d.cacheCompiles;
        }
        c["sim_cycles"] = f64(busy);
        c["static_insts"] = rep.stats.get("serve.cache.compiledInstructions");
        c["fleet.compiles"] = f64(compiles);
        c["fleet.cache_hit_rate"] =
            f64(hits) / f64(std::max<u64>(1, hits + compiles));
        c["fleet.completed"] = f64(rep.completed);
        c["fleet.shed"] = f64(rep.shedTotal);
        c["fleet.late"] = f64(late);
        c["fleet.preemptions"] = f64(rep.preemptions);
        c["fleet.batches"] = f64(rep.batches);
        c["fleet.batched_requests"] = f64(rep.batchedRequests);
        c["fleet.busy_frac"] =
            f64(busy) / std::max(1.0, f64(rep.makespan) * rep.devices.size() *
                                          server_->slotsPerDevice());
        c["fleet.queue_p99_kcycles"] = rep.queueLatency.percentile(99) * 1e-3;
        c["fleet.exec_p50_kcycles"] = rep.execLatency.percentile(50) * 1e-3;
        return r;
    }

  private:
    u64 seed_;
    std::vector<ServeRequest> reqs_;
    std::map<u64, u64> inputSeed_; ///< request id -> input seed
    std::unique_ptr<FleetServer> server_;
};

std::unique_ptr<Workload>
makeWorkload(const std::string &name, u64 seed)
{
    if (name == "oneshot_func")
        return std::make_unique<OneshotFunc>(seed);
    if (name == "cycle_sync")
        return std::make_unique<CycleSim>(
            seed, geometry(2, 16, 2, 2), std::vector<std::string>{"Histogram"});
    if (name == "fleet_mix")
        return std::make_unique<FleetMix>(seed);
    return nullptr;
}

// ------------------------------------------------------------ reference

/** Reference images by (pipeline, size, seed), computed on first use. */
class References
{
  public:
    /** True when @p out is bit-for-bit the reference output. */
    bool
    matches(const Output &out)
    {
        std::string key = out.pipeline + "|" + std::to_string(out.width) +
                          "x" + std::to_string(out.height) + "|" +
                          std::to_string(out.seed);
        auto it = refs_.find(key);
        if (it == refs_.end()) {
            BenchmarkApp app =
                makeBenchmark(out.pipeline, out.width, out.height, out.seed);
            it = refs_.emplace(key, referenceRun(app.def, app.inputs)).first;
        }
        return out.image == it->second;
    }

  private:
    std::map<std::string, Image> refs_;
};

// ----------------------------------------------------------------- main

struct Args
{
    std::string workload;
    u64 seed = 1;
    f64 seconds = 10;
    bool trace = false;
    std::string rev = "unknown";
    std::string traceOut;
    bool injectMismatch = false;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        if (k == "--inject-mismatch") {
            a.injectMismatch = true;
            continue;
        }
        if (i + 1 >= argc)
            fatal("missing value for ", k);
        std::string v = argv[++i];
        if (k == "--workload") {
            a.workload = v;
            haveWorkload = true;
        } else if (k == "--seed") {
            a.seed = std::stoull(v);
        } else if (k == "--seconds") {
            a.seconds = std::stod(v);
        } else if (k == "--trace") {
            a.trace = v == "1";
        } else if (k == "--rev") {
            a.rev = v;
        } else if (k == "--trace-out") {
            a.traceOut = v;
        } else {
            fatal("unknown argument ", k);
        }
    }
    if (!haveWorkload)
        fatal("--workload is required");
    return a;
}

f64
median(std::vector<f64> v)
{
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Deterministic summary of a pass: must repeat exactly for a seed. */
std::map<std::string, f64>
exactMetrics(const PassResult &r, u64 mismatches)
{
    std::map<std::string, f64> m = r.counts;
    m["pass_frac"] =
        1.0 - f64(r.threw + mismatches) / f64(std::max<u64>(1, r.attempted));
    m["lat_p50_kcycles"] = percentile(r.latencies, 50) * 1e-3;
    m["lat_p99_kcycles"] = percentile(r.latencies, 99) * 1e-3;
    m["check.mismatches"] = f64(mismatches);
    return m;
}

f64
get(const std::map<std::string, f64> &m, const std::string &k)
{
    auto it = m.find(k);
    return it == m.end() ? 0.0 : it->second;
}

f64
ratio(f64 num, f64 den)
{
    return den > 0 ? num / den : 0.0;
}

/** Per-layer metrics from one traced iteration's self times and its
 *  pass's exact counts. */
std::map<std::string, f64>
perLayer(const std::map<std::string, f64> &self,
         const std::map<std::string, f64> &x, u64 requests)
{
    std::map<std::string, f64> m;
    m["apps.host_s"] = get(self, "apps");
    f64 comp = get(self, "compiler");
    m["compiler.host_s"] = comp;
    for (const std::string &n : allBenchmarkNames())
        m["compiler.host_s." + n] = get(self, "compiler." + n);
    m["compiler.kinsts_per_s"] = ratio(get(x, "static_insts") * 1e-3, comp);
    m["compiler.spilled_regs"] = get(x, "compiler.spilled_regs");
    m["compiler.failed"] = get(x, "compiler.failed");
    m["analysis.host_s"] = get(self, "analysis");

    f64 func = get(self, "func");
    m["func.host_s"] = func;
    m["func.insts"] = get(x, "func.insts");
    m["func.minsts_per_s"] = ratio(get(x, "func.insts") * 1e-6, func);
    m["func.failed"] = get(x, "func.failed");

    f64 sim = get(self, "sim");
    f64 simCycles = get(x, "sim_cycles");
    f64 acc = get(x, "sim.acc.cycles");
    m["sim.host_s"] = sim;
    m["sim.insts"] = get(x, "sim.insts");
    m["sim.kcycles_per_s"] = ratio(simCycles * 1e-3, sim);
    m["sim.minsts_per_s"] = ratio(get(x, "sim.insts") * 1e-6, sim);
    m["sim.ffwd_jumps"] = get(x, "sim.ffwd_jumps");
    m["sim.ffwd_skip_frac"] = ratio(get(x, "sim.ffwd_skipped"), simCycles);
    m["sim.ipc"] = ratio(get(x, "sim.insts"), get(x, "sim.vault_cycles"));
    m["sim.issue_frac"] = ratio(get(x, "sim.acc.issued"), acc);
    for (const char *s : {"hazard", "barrier", "struct", "drain", "bubble"})
        m[std::string("sim.stall.") + s + "_frac"] =
            ratio(get(x, std::string("sim.acc.") + s), acc);
    m["sim.halted_frac"] = ratio(get(x, "sim.acc.halted"), acc);
    m["sim.serdes_packets"] = get(x, "sim.serdes_packets");
    m["sim.energy_uj"] = get(x, "sim.energy_uj");
    m["sim.failed"] = get(x, "sim.failed");
    m["dram.row_hit_rate"] =
        ratio(get(x, "dram.row_hits"),
              get(x, "dram.row_hits") + get(x, "dram.row_misses"));
    m["dram.acts"] = get(x, "dram.acts");
    m["dram.refs"] = get(x, "dram.refs");
    m["noc.hops"] = get(x, "noc.hops");
    m["noc.blocked"] = get(x, "noc.blocked");

    m["service.load_gen_host_s"] = get(self, "service");
    f64 fleet = get(self, "fleet");
    m["fleet.host_s"] = fleet;
    m["fleet.host_ms_per_req"] = ratio(fleet * 1e3, f64(requests));
    for (const char *k : {"compiles", "cache_hit_rate", "completed", "shed",
                          "preemptions", "batches", "batched_requests",
                          "busy_frac", "queue_p99_kcycles", "exec_p50_kcycles"})
        m[std::string("fleet.") + k] = get(x, std::string("fleet.") + k);
    // Shed, failed or finished after the 0.5 ms target, over offered.
    m["fleet.slo_miss_frac"] = ratio(get(x, "fleet.shed") +
                                         get(x, "fleet.failed") +
                                         get(x, "fleet.late"),
                                     f64(requests));
    return m;
}

/** Set-up batches behind setup_s, and the CPU seconds each lasts. */
constexpr int kSetupBatches = 5;
constexpr f64 kSetupBatchS = 0.2;
constexpr u64 kMinPasses = 2;

/** A traced sample of one op and its spans' self times. */
struct TracedOp
{
    f64 cpu = 0;
    std::map<std::string, f64> self;
};

int
run(const Args &a)
{
    Clock::time_point start = Clock::now();
    std::unique_ptr<Workload> w = makeWorkload(a.workload, a.seed);
    if (!w)
        fatal("unknown workload '", a.workload, "'");
    SpanLog log;

    // Self times of spans [from, to), scaled like the region's timing.
    auto scaledSelf = [&](size_t from, size_t to, const Timing &t) {
        std::map<std::string, f64> m = log.selfTimes(from, to);
        for (auto &[k, v] : m)
            v *= kCalNominalS / t.cal;
        return m;
    };

    // setup_s comes from kSetupBatches batches, each repeating the
    // set-up until it has used kSetupBatchS, so that millisecond set-ups
    // are timed in bulk: the median CPU seconds per set-up, scaled by
    // the median calibration time.  A traced run sets up once, traced.
    std::vector<Timing> setups; ///< per batch, per set-up
    std::map<std::string, f64> self; ///< traced self times per layer
    if (a.trace) {
        log.setOn(true);
        Timing t = timeScaled([&] {
            log.scope("setup", a.workload, -1, [&] { w->setup(log); });
        });
        log.setOn(false);
        self = scaledSelf(0, log.spans().size(), t);
    } else {
        for (int b = 0; b < kSetupBatches; ++b) {
            u64 n = 0;
            Timing t = timeScaled([&] {
                f64 t0 = cpuSeconds();
                do {
                    w->setup(log);
                    ++n;
                } while (cpuSeconds() - t0 < kSetupBatchS);
            });
            setups.push_back({t.raw / f64(n), t.cal});
        }
    }

    // Pass -> check, until the next pass would overrun the budget and
    // at least kMinPasses times.
    References refs;
    std::vector<std::vector<Timing>> samples; ///< [op][pass]
    std::vector<std::vector<TracedOp>> traced; ///< [op][traced pass]
    std::vector<f64> overhead; ///< traced / untraced, adjacent passes
    std::vector<f64> passWalls;
    f64 checkS = 0, lastIter = 0;
    u64 attempted = 0, failed = 0, mismatches = 0, offered = 0;
    std::map<std::string, f64> exact;
    bool deterministic = true;
    std::vector<std::string> errors;
    for (u64 p = 0;; ++p) {
        if (p >= kMinPasses && secondsSince(start) + lastIter > a.seconds)
            break;
        Clock::time_point tp = Clock::now();
        log.schedule(a.trace, p);
        PassResult r = w->pass(log);
        passWalls.push_back(secondsSince(tp));

        f64 tc = cpuSeconds();
        if (a.injectMismatch && !r.outputs.empty() &&
            r.outputs[0].image.pixels() > 0)
            r.outputs[0].image.data()[0] += 1.0f;
        u64 bad = 0;
        for (const Output &o : r.outputs)
            bad += !refs.matches(o);
        r.outputs.clear();
        checkS += cpuSeconds() - tc;

        attempted += r.attempted;
        failed += r.threw + bad;
        mismatches += bad;
        for (const std::string &e : r.errors)
            if (std::find(errors.begin(), errors.end(), e) == errors.end())
                errors.push_back(e);
        std::map<std::string, f64> x = exactMetrics(r, bad);
        x["ops"] = f64(r.opTime.size());
        if (p == 0) {
            exact = x;
            offered = r.attempted;
        } else if (x != exact) {
            deterministic = false;
        }

        samples.resize(std::max(samples.size(), r.opTime.size()));
        traced.resize(samples.size());
        for (size_t i = 0; i < r.opTime.size(); ++i) {
            std::vector<Timing> &s = samples[i];
            const Timing &t = r.opTime[i];
            // Tracing alternates per op from pass to pass, so an op's
            // previous sample is untraced when this one is traced.
            if (a.trace && !s.empty())
                overhead.push_back(r.opTraced[i]
                                       ? t.scaled() / s.back().scaled()
                                       : s.back().scaled() / t.scaled());
            s.push_back(t);
            if (r.opTraced[i])
                traced[i].push_back(
                    {t.scaled(), scaledSelf(r.opSpans[i].first,
                                            r.opSpans[i].second, t)});
        }
        lastIter = secondsSince(tp);
    }

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    f64 rssMb = f64(ru.ru_maxrss) / 1024.0;

    if (!a.traceOut.empty() && a.trace) {
        std::ofstream out(a.traceOut, std::ios::binary);
        log.writeChrome(out);
        if (!out)
            fatal("failed writing trace to ", a.traceOut);
    }


    // Host facts, the exact values and any errors: the next-to-last line.
    JsonWriter info;
    info.field("workload", a.workload).field("seed", a.seed);
    info.key("host").beginObject();
    info.field("nproc", u64(std::thread::hardware_concurrency()))
        .field("rev", a.rev)
        .field("build_type", PERFBENCH_BUILD_TYPE)
        .field("compiler", PERFBENCH_COMPILER)
        .field("sim_threads", u64(1))
        .field("clock", "CLOCK_PROCESS_CPUTIME_ID")
        .field("cal_nominal_s", kCalNominalS);
    info.endObject();
    info.field("passes", u64(passWalls.size()))
        .field("deterministic", deterministic);
    info.key("pass_wall_s").beginArray();
    for (f64 t : passWalls)
        info.value(t);
    info.endArray();
    // Every timing as {"raw": [...], "cal": [...]}.
    auto timings = [&](const std::vector<Timing> &v) {
        info.beginObject();
        for (f64 Timing::*f : {&Timing::raw, &Timing::cal}) {
            info.key(f == &Timing::raw ? "raw" : "cal").beginArray();
            for (const Timing &t : v)
                info.value(t.*f);
            info.endArray();
        }
        info.endObject();
    };
    info.key("setup_s");
    timings(setups);
    info.key("op_s").beginArray();
    for (const std::vector<Timing> &s : samples)
        timings(s);
    info.endArray();
    info.key("exact").beginObject();
    for (const auto &[k, v] : exact)
        info.field(k, v);
    info.endObject();
    info.key("errors").beginArray();
    for (const std::string &e : errors)
        info.value(e);
    info.endArray();
    std::printf("%s\n", info.finish().c_str());

    std::map<std::string, f64> values;
    if (!a.trace) {
        // Median CPU seconds, scaled by the median calibration time.
        auto scaledMedian = [](const std::vector<Timing> &v) {
            std::vector<f64> raw, cal;
            for (const Timing &t : v) {
                raw.push_back(t.raw);
                cal.push_back(t.cal);
            }
            return median(raw) * kCalNominalS / median(cal);
        };
        f64 cpu = 0;
        for (const std::vector<Timing> &s : samples)
            cpu += scaledMedian(s);
        values = {{"cpu_s", cpu},
                  {"setup_s", scaledMedian(setups)},
                  {"peak_rss_mb", rssMb}};
        for (const char *k : {"pass_frac", "sim_cycles", "static_insts",
                              "lat_p50_kcycles", "lat_p99_kcycles"})
            values[k] = exact[k];
    } else {
        // Each op's self times from its traced sample of median time.
        for (std::vector<TracedOp> &t : traced) {
            std::sort(t.begin(), t.end(),
                      [](const TracedOp &x, const TracedOp &y) {
                          return x.cpu < y.cpu;
                      });
            for (const auto &[k, v] : t[(t.size() - 1) / 2].self)
                self[k] += v;
        }
        values = perLayer(self, exact, offered);
        values["check.host_s"] = checkS;
        values["check.mismatches"] = f64(mismatches);
        values["trace.overhead_frac"] = median(overhead) - 1.0;
    }

    JsonWriter j;
    j.field("correct", deterministic && mismatches == 0)
        .field("attempted", attempted)
        .field("failed", failed);
    j.key("metrics").beginObject();
    for (const auto &[k, v] : values)
        j.field(k, v);
    j.endObject();
    std::printf("%s\n", j.finish().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(parseArgs(argc, argv));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
