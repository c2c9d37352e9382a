/**
 * @file
 * Functional (zero-time) access to coherent memory.
 *
 * Host-side code (workload initialization, result verification, the
 * OS model) must see the same values a guest load would see. Because
 * caches hold real data, a functional read must consult dirty cached
 * copies before physical memory; coherence::CacheSystem implements
 * this by probing every L1, then the block's home bank. Guest code
 * never uses this interface.
 */

#ifndef CCSVM_RUNTIME_FUNCTIONAL_MEM_HH
#define CCSVM_RUNTIME_FUNCTIONAL_MEM_HH

#include "base/types.hh"

namespace ccsvm::runtime
{

/** Coherent functional access (implemented by coherence::CacheSystem). */
class FunctionalMem
{
  public:
    virtual ~FunctionalMem() = default;

    /** Read @p len bytes at physical @p pa, honoring cached copies. */
    virtual void funcRead(Addr pa, void *dst, unsigned len) = 0;

    /** Write @p len bytes at physical @p pa, updating every cached
     * copy so no stale data survives. */
    virtual void funcWrite(Addr pa, const void *src, unsigned len) = 0;
};

} // namespace ccsvm::runtime

#endif // CCSVM_RUNTIME_FUNCTIONAL_MEM_HH
