#include "coherence/slice_hash.hh"

#include <string>

#include "base/enum_names.hh"
#include "base/logging.hh"
#include "mem/phys_mem.hh"

namespace ccsvm::coherence
{

namespace
{

class ModHash final : public SliceHash
{
  public:
    SliceHashKind kind() const override { return SliceHashKind::Mod; }

    int
    bankOf(Addr block_addr, int num_banks) const override
    {
        return static_cast<int>(
            (block_addr >> mem::blockShift) %
            static_cast<std::uint64_t>(num_banks));
    }
};

class XorfoldHash final : public SliceHash
{
  public:
    SliceHashKind kind() const override { return SliceHashKind::Xorfold; }

    int
    bankOf(Addr block_addr, int num_banks) const override
    {
        const std::uint64_t blk = block_addr >> mem::blockShift;
        // Fold the whole block number onto the bank-select field in
        // ceil(log2(num_banks))-bit chunks: tag and index bits above
        // the field XOR into the choice, so a stride that is a
        // multiple of num_banks blocks no longer pins one bank.
        unsigned width = 1;
        while ((std::uint64_t(1) << width) <
               static_cast<std::uint64_t>(num_banks))
            ++width;
        const std::uint64_t mask = (std::uint64_t(1) << width) - 1;
        std::uint64_t fold = 0;
        for (std::uint64_t v = blk; v != 0; v >>= width)
            fold ^= v & mask;
        return static_cast<int>(fold %
                                static_cast<std::uint64_t>(num_banks));
    }
};

class SkewHash final : public SliceHash
{
  public:
    SliceHashKind kind() const override { return SliceHashKind::Skew; }

    int
    bankOf(Addr block_addr, int num_banks) const override
    {
        // Fibonacci (multiplicative) hash: the golden-ratio constant
        // diffuses every input bit into the high half, which we then
        // reduce. Decorrelates structured strides entirely, at the
        // cost of adjacent blocks sharing no home-bank locality.
        const std::uint64_t blk = block_addr >> mem::blockShift;
        const std::uint64_t h = blk * 0x9E3779B97F4A7C15ull;
        return static_cast<int>((h >> 32) %
                                static_cast<std::uint64_t>(num_banks));
    }
};

} // namespace

const char *
sliceHashName(SliceHashKind k)
{
    switch (k) {
      case SliceHashKind::Mod: return "mod";
      case SliceHashKind::Xorfold: return "xorfold";
      case SliceHashKind::Skew: return "skew";
    }
    return "?";
}

std::string
sliceHashNameList(std::string_view sep)
{
    return enumNameList(allSliceHashes, sliceHashName, sep);
}

bool
sliceHashFromName(std::string_view name, SliceHashKind &out)
{
    return enumFromName(allSliceHashes, sliceHashName, name, out);
}

const SliceHash &
sliceHash(SliceHashKind k)
{
    static const ModHash mod;
    static const XorfoldHash xorfold;
    static const SkewHash skew;
    switch (k) {
      case SliceHashKind::Mod: return mod;
      case SliceHashKind::Xorfold: return xorfold;
      case SliceHashKind::Skew: return skew;
    }
    ccsvm_panic("unknown slice hash %d", static_cast<int>(k));
}

} // namespace ccsvm::coherence
