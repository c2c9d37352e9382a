/**
 * @file
 * Trace replay: re-issues a captured `.ccsvmt` op stream through the
 * real cores, TLBs, caches, directory and NoC of a fresh machine.
 *
 * Replay is closed-loop: each recorded op goes back through
 * ThreadContext::rawOp, so translation, faults, coherence transfers
 * and contention all re-happen for real — only the guest's control
 * flow is replaced by the literal recorded sequence. Because every
 * workload's timing is data-oblivious (loaded values steer only
 * host-validated results and already-unrolled spin loops), and the
 * pre-run page mappings are re-created in the captured order, a
 * replayed run's stats are byte-identical to the capture run's when
 * the machine configuration matches the trace shape.
 *
 * v1 limitations (diagnosed loudly, never silent): single guest
 * process, a single captured runMain, one CPU thread, no HostWait
 * ops, no mid-run unmapping. See docs/TRACE_FORMAT.md.
 */

#ifndef CCSVM_WORKLOADS_REPLAY_REPLAYER_HH
#define CCSVM_WORKLOADS_REPLAY_REPLAYER_HH

#include <string>

#include "system/ccsvm_machine.hh"
#include "workloads/replay/reader.hh"
#include "workloads/workloads.hh"

namespace ccsvm::workloads::replay
{

/** The shape a machine built from @p cfg would capture into a trace
 * header; compare against a TraceInfo's shape with shapeMismatch(). */
TraceShape shapeOf(const system::CcsvmConfig &cfg);

/**
 * Replay @p trace_path on @p m. Throws std::runtime_error on an
 * unreadable/corrupt trace, a machine-shape mismatch, or a v1
 * restriction; the driver turns these into exit-2 diagnostics before
 * construction via readTrace() + shapeMismatch().
 */
RunResult runReplay(system::CcsvmMachine &m,
                    const std::string &trace_path);

} // namespace ccsvm::workloads::replay

#endif // CCSVM_WORKLOADS_REPLAY_REPLAYER_HH
