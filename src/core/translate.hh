/**
 * @file
 * The guest memory path both core models share.
 *
 * CPU and MTTOP threads reach memory the same way (paper Sec. 3.2.1):
 * a per-core TLB, a hardware page walk on a miss, a TLB fill that
 * carries the page's region attribute, and one coherence request into
 * the core's L1. What differs is passed in by the core: the fault
 * route (a CPU traps into the kernel, an MTTOP core relays through
 * the MIFD) and where a translated access goes (the APU CPU diverts
 * its uncached window before the L1). The path is a function
 * template, so sharing it costs no virtual call and no allocation.
 */

#ifndef CCSVM_CORE_TRANSLATE_HH
#define CCSVM_CORE_TRANSLATE_HH

#include <utility>

#include "coherence/l1_cache.hh"
#include "core/thread_context.hh"
#include "runtime/process.hh"
#include "vm/tlb.hh"
#include "vm/walker.hh"

namespace ccsvm::core
{

/**
 * Send @p tc's pending load, store or atomic to @p l1 at @p paddr,
 * stamped with @p te's region attribute, in the thread's own request.
 * The op completes with the value the L1 returns.
 */
inline void
issueToL1(coherence::L1Controller &l1, ThreadContext &tc, Addr paddr,
          const vm::TlbEntry &te)
{
    coherence::MemRequest &req = tc.memRequest();
    req = {.op = tc.pendingOp().mem,
           .paddr = paddr,
           .region = te.region,
           .onDone = [&tc](std::uint64_t v) { tc.completeOp(v); }};
    l1.access(req);
}

/**
 * Translate @p tc's pending memory op through @p tlb and hand it on.
 *
 * A TLB hit calls `issue(paddr, entry)` at once. A miss walks the
 * page table on @p walker: a present page fills the TLB with its
 * region attribute and then issues; a missing one calls
 * `fault(process, va)`, and the core raises the fault on its own
 * route and translates again once it is serviced.
 */
template <typename Issue, typename Fault>
void
translateAndIssue(vm::Tlb &tlb, vm::Walker &walker, ThreadContext &tc,
                  Issue issue, Fault fault)
{
    const vm::VAddr va = tc.pendingOp().va;
    vm::TlbEntry te;
    if (tlb.lookup(va, te)) {
        issue(te.frame | (va & mem::pageOffsetMask), te);
        return;
    }
    runtime::Process &proc = *tc.process();
    walker.walk(proc.addressSpace().pageTable(), va,
                [&tlb, &proc, va, issue = std::move(issue),
                 fault = std::move(fault)](vm::WalkResult r) {
                    if (!r.present) {
                        fault(proc, va);
                        return;
                    }
                    vm::TlbEntry te{r.frame, r.writable};
                    if (const vm::MemRegion *mr =
                            proc.addressSpace().regionFor(va))
                        te.region = {mr->attr, mr->protocol};
                    tlb.insert(va, te.frame, te.writable, te.region);
                    issue(te.frame | (va & mem::pageOffsetMask), te);
                });
}

} // namespace ccsvm::core

#endif // CCSVM_CORE_TRANSLATE_HH
