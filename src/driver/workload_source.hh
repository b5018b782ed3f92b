/**
 * @file
 * WorkloadSource — the pluggable workload layer of the driver.
 *
 * A WorkloadSource decides, per fleet session, (a) which app profiles
 * the simulated device carries and (b) what the session does. Three
 * implementations cover the harness's methodologies:
 *
 *  - ProfileProgramSource: the spec's declarative event program over
 *    its app mix — every session runs the same program (the figure
 *    benches and the original `workload = profiles` path);
 *  - SyntheticPopulationSource: heterogeneous user populations
 *    (`workload = synthetic`) — each session draws a per-user app
 *    subset, footprint multipliers and a switch-rate class from the
 *    spec's PopulationConfig, deterministically in (seed, index);
 *  - TraceReplaySource: bit-identical replay (`workload = trace`) of
 *    a trace recorded with `ariadne_sim --record` — sessions re-issue
 *    the recorded primitive ops and feed the recorded touch streams
 *    straight into MobileSystem, bypassing the generator.
 *
 * Sources are immutable once built and shared across worker threads;
 * everything they derive depends only on (spec, session index), which
 * is what keeps fleet aggregates thread-invariant.
 *
 * TraceRecorder closes the loop: attached as a MobileSystem observer
 * it streams the primitive ops and touches of any source — including
 * compound SessionDriver scenarios and bench hooks — into a
 * TraceWriter, so every scenario can be captured once and replayed.
 */

#ifndef ARIADNE_DRIVER_WORKLOAD_SOURCE_HH
#define ARIADNE_DRIVER_WORKLOAD_SOURCE_HH

#include <memory>

#include "driver/scenario_spec.hh"
#include "driver/session_result.hh"
#include "workload/trace.hh"

namespace ariadne::driver
{

class TraceRecorder;

/**
 * Execution context of one running fleet session, handed to
 * WorkloadSource::drive. Wraps the system, the scripted driver and
 * the session's result record, and owns the bookkeeping every source
 * shares: sample recording (with the optional trace marker), bench
 * hooks, app-name lookup and the switch_next round-robin cursor.
 */
class SessionRun
{
  public:
    SessionRun(MobileSystem &sys, SessionDriver &driver,
               SessionResult &result,
               const std::vector<SessionHook> &hooks, double scale,
               TraceRecorder *recorder = nullptr);

    MobileSystem &system() noexcept { return sys; }
    SessionDriver &driver() noexcept { return sessionDriver; }
    SessionResult &result() noexcept { return sessionResult; }

    /** Record a measured relaunch into the session result. */
    void recordSample(AppId uid, const RelaunchStats &st);

    /** Invoke bench hook @p index; panics when out of range. */
    void callHook(std::size_t index);

    /** Uid of @p name in this session's mix; panics when absent. */
    AppId lookup(const std::string &name) const;

    /** Next app of the round-robin cursor (switch_next). */
    AppId nextApp();

  private:
    MobileSystem &sys;
    SessionDriver &sessionDriver;
    SessionResult &sessionResult;
    const std::vector<SessionHook> &hooks;
    double scale;
    TraceRecorder *recorder;
    std::vector<AppId> uids;
    std::size_t cursor = 0;
};

/**
 * Interpret a declarative event program against @p run. Shared by the
 * profile and synthetic sources (and thereby by every bench).
 */
void runEventProgram(SessionRun &run, const std::vector<Event> &program);

/** Decides profiles and behaviour of each fleet session. */
class WorkloadSource
{
  public:
    virtual ~WorkloadSource() = default;

    /** Stable kind name ("profiles" / "synthetic" / "trace"). */
    virtual const char *kind() const noexcept = 0;

    /** Sessions this source can supply (0 = unbounded). */
    virtual std::size_t sessionLimit() const noexcept { return 0; }

    /** App profiles of fleet session @p index. */
    virtual std::vector<AppProfile>
    sessionProfiles(std::size_t index) const = 0;

    /** Play session @p index against @p run. */
    virtual void drive(std::size_t index, SessionRun &run) const = 0;
};

/** The spec's event program over its declared app mix. */
class ProfileProgramSource : public WorkloadSource
{
  public:
    explicit ProfileProgramSource(ScenarioSpec spec);

    const char *kind() const noexcept override { return "profiles"; }
    std::vector<AppProfile>
    sessionProfiles(std::size_t index) const override;
    void drive(std::size_t index, SessionRun &run) const override;

  private:
    ScenarioSpec spec;
};

/**
 * Synthetic user population (`workload = synthetic`): session `i`
 * models one user drawn deterministically from (seed, i) — an app
 * subset of `population_apps_per_user` apps, per-app footprint
 * multipliers within ±`population_footprint_spread`, and a
 * light/regular/heavy switch-rate class that shapes the generated
 * warmup + switch_next program.
 */
class SyntheticPopulationSource : public WorkloadSource
{
  public:
    explicit SyntheticPopulationSource(ScenarioSpec spec);

    const char *kind() const noexcept override { return "synthetic"; }
    std::vector<AppProfile>
    sessionProfiles(std::size_t index) const override;
    void drive(std::size_t index, SessionRun &run) const override;

    /** Generated program of session @p index (exposed for tests). */
    std::vector<Event> sessionProgram(std::size_t index) const;

    /** Switch-rate class of session @p index. */
    enum class UserClass { Light, Regular, Heavy };
    UserClass sessionClass(std::size_t index) const;

  private:
    ScenarioSpec spec;
    std::vector<AppProfile> pool;
};

/**
 * Bit-identical replay of a recorded fleet trace (`workload =
 * trace`). Loads the trace once; each session re-issues its recorded
 * primitive ops with the recorded touch streams. Profiles come from
 * the scenario embedded in the trace (rebuilt through its own
 * source), so synthetic populations replay too.
 */
class TraceReplaySource : public WorkloadSource
{
  public:
    /** Load and validate @p path; throws TraceError on unreadable or
     * corrupt files and SpecError on structural problems. */
    explicit TraceReplaySource(std::string path);

    const char *kind() const noexcept override { return "trace"; }
    std::size_t sessionLimit() const noexcept override
    {
        return sessions.size();
    }
    std::vector<AppProfile>
    sessionProfiles(std::size_t index) const override;
    void drive(std::size_t index, SessionRun &run) const override;

    /** The scenario the trace was recorded from. */
    const ScenarioSpec &recordedSpec() const noexcept
    {
        return recorded;
    }

    /** The scenario embedded in the header @p reader has read from
     * trace @p path; throws SpecError when it carries none, an
     * invalid one or a replay. */
    static ScenarioSpec embeddedSpec(const TraceReader &reader,
                                     const std::string &path);

  private:
    struct Span
    {
        std::size_t begin = 0;
        std::size_t end = 0;
    };

    std::string path;
    ScenarioSpec recorded;
    std::shared_ptr<const WorkloadSource> profileSource;
    std::vector<TraceRecord> records;
    std::vector<Span> sessions;
};

/**
 * Build the source @p spec asks for. Trace specs load (and validate)
 * their trace file here; see TraceReplaySource for the exceptions.
 */
std::shared_ptr<const WorkloadSource>
makeWorkloadSource(const ScenarioSpec &spec);

/**
 * MobileSystem observer that streams a session's primitive ops and
 * touches into a TraceWriter. FleetRunner::runRecorded attaches one
 * per run; SessionRun::recordSample additionally emits the Sample
 * marker that tells a replay which relaunches entered the session
 * result.
 */
class TraceRecorder : public SystemObserver
{
  public:
    explicit TraceRecorder(TraceWriter &writer) : writer(writer) {}

    /** Mark the start of fleet session @p index. */
    void beginSession(std::size_t index);

    void onOp(TraceOp op, AppId uid, Tick arg, Tick now) override;
    void onTouch(AppId uid, const TouchEvent &ev, Tick now) override;

    /** Emit the Sample marker for a recorded relaunch. */
    void sampleRecorded(AppId uid, Tick now);

  private:
    TraceWriter &writer;
};

} // namespace ariadne::driver

#endif // ARIADNE_DRIVER_WORKLOAD_SOURCE_HH
