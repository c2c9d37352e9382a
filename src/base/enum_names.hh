/**
 * @file
 * Name tables for the enums a user selects by name (coherence
 * protocols, home-slice hashes, L2 replacement policies). Each enum
 * keeps its `allX` array (every value, in enum order) and its `xName`
 * function; these two templates are the one copy of the code that
 * joins the names for usage and error text and looks a name back up.
 */

#ifndef CCSVM_BASE_ENUM_NAMES_HH
#define CCSVM_BASE_ENUM_NAMES_HH

#include <algorithm>
#include <array>
#include <cctype>
#include <cstddef>
#include <string>
#include <string_view>

namespace ccsvm
{

/** Every name in @p all, in table order, joined with @p sep. */
template <typename E, std::size_t N>
std::string
enumNameList(const std::array<E, N> &all, const char *(*name)(E),
             std::string_view sep)
{
    std::string out;
    for (const E e : all) {
        if (!out.empty())
            out += sep;
        out += name(e);
    }
    return out;
}

/** Set @p out to the value in @p all named @p text, ignoring case;
 * false (and @p out untouched) when no value has that name. */
template <typename E, std::size_t N>
bool
enumFromName(const std::array<E, N> &all, const char *(*name)(E),
             std::string_view text, E &out)
{
    const auto same = [](char a, char b) {
        return std::tolower(static_cast<unsigned char>(a)) ==
               std::tolower(static_cast<unsigned char>(b));
    };
    for (const E e : all) {
        const std::string_view n = name(e);
        if (std::equal(n.begin(), n.end(), text.begin(), text.end(),
                       same)) {
            out = e;
            return true;
        }
    }
    return false;
}

} // namespace ccsvm

#endif // CCSVM_BASE_ENUM_NAMES_HH
