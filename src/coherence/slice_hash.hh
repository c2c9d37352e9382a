/**
 * @file
 * Pluggable home-slice (bank-select) hash layer.
 *
 * The banked L2/directory is the chip's home node; which bank a block
 * address lives in is its home slice. Low-bits modulo is the right
 * default — contiguous blocks round-robin across banks — but any
 * access stream whose stride is a multiple of numBanks blocks
 * hot-spots one bank. So the choice is a SliceHash policy, which
 * CacheSystem::homeOf (the one address-to-bank lookup) consults, with
 * one concrete policy per hash:
 *
 *   mod      block-number modulo bank count
 *            (default; matches the seed tree exactly)
 *   xorfold  XOR-fold every bank-width chunk of the block number
 *            before the modulo, so high index/tag bits perturb the
 *            bank choice and power-of-two strides spread out
 *            (FlexiCAS llchash-style index folding)
 *   skew     multiplicative (Fibonacci) hash of the block number —
 *            a stronger scramble that decorrelates even structured
 *            strides at the cost of any locality between adjacent
 *            blocks' home banks
 *
 * The hash only picks the bank id; the bank-to-NoC-node mapping (and
 * hence the torus route) is unchanged. Policies are stateless and
 * shared, mirroring ProtocolPolicy.
 */

#ifndef CCSVM_COHERENCE_SLICE_HASH_HH
#define CCSVM_COHERENCE_SLICE_HASH_HH

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "base/types.hh"

namespace ccsvm::coherence
{

/** Selectable home-slice hashes. */
enum class SliceHashKind : std::uint8_t
{
    Mod,
    Xorfold,
    Skew,
};

/** Every selectable slice hash, in enum order. The driver's
 * --list-slice-hashes, its usage/error text and CI's hash loops all
 * derive from this table, so adding a hash extends them all. */
inline constexpr std::array<SliceHashKind, 3> allSliceHashes = {
    SliceHashKind::Mod, SliceHashKind::Xorfold, SliceHashKind::Skew};

/** Lower-case hash name ("mod", "xorfold", "skew"). */
const char *sliceHashName(SliceHashKind k);

/** Every hash name joined with @p sep (usage and error text). */
std::string sliceHashNameList(std::string_view sep = ", ");

/** Parse a hash name (case-insensitive); false on unknown. */
bool sliceHashFromName(std::string_view name, SliceHashKind &out);

/**
 * The address-to-home-bank mapping behind CacheSystem::homeOf, which
 * every request, bank check and functional access goes through.
 * Policies are stateless; sliceHash() hands out one shared instance
 * per kind.
 */
class SliceHash
{
  public:
    virtual ~SliceHash() = default;

    virtual SliceHashKind kind() const = 0;

    /** Home bank of @p block_addr among @p num_banks banks. */
    virtual int bankOf(Addr block_addr, int num_banks) const = 0;

    const char *name() const { return sliceHashName(kind()); }
};

/** Shared immutable hash instance for @p k. */
const SliceHash &sliceHash(SliceHashKind k);

} // namespace ccsvm::coherence

#endif // CCSVM_COHERENCE_SLICE_HASH_HH
