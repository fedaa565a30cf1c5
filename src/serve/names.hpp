// Generated names of the serve layer, built without allocation: job task
// and data-handle names ("j<ticket>.t<i>", "j<ticket>.d<i>") and the
// default tenant name ("tenant-<n>"). A batch materializes a few names per
// job, so they are written with std::to_chars into one stack buffer rather
// than through printf-style formatting.
#pragma once

#include <array>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <string_view>

#include "util/error.hpp"

namespace hetflow::serve {

class NameBuilder {
 public:
  /// Longest prefix and infix accepted: with 20 digits for any uint64 and
  /// 10 for any uint32, every name fits the buffer.
  static constexpr std::size_t kMaxAffix = 16;

  /// Starts every name with `prefix` followed by `number` in decimal.
  NameBuilder(std::string_view prefix, std::uint64_t number) {
    HETFLOW_REQUIRE_MSG(prefix.size() <= kMaxAffix, "name prefix too long");
    std::memcpy(buf_.data(), prefix.data(), prefix.size());
    stem_ = static_cast<std::size_t>(
        std::to_chars(buf_.data() + prefix.size(), buf_.data() + buf_.size(),
                      number)
            .ptr -
        buf_.data());
  }

  /// The prefix and number alone: "tenant-7".
  std::string_view stem() const noexcept { return {buf_.data(), stem_}; }

  /// The stem followed by `infix` and `index`: "j7" + ".t" + 3 = "j7.t3".
  /// The view is valid until the next call on this builder.
  std::string_view with(std::string_view infix, std::uint32_t index) {
    HETFLOW_REQUIRE_MSG(infix.size() <= kMaxAffix, "name infix too long");
    char* const out = buf_.data() + stem_;
    std::memcpy(out, infix.data(), infix.size());
    char* const end =
        std::to_chars(out + infix.size(), buf_.data() + buf_.size(), index)
            .ptr;
    return {buf_.data(), static_cast<std::size_t>(end - buf_.data())};
  }

 private:
  std::array<char, 2 * kMaxAffix + 20 + 10> buf_{};
  std::size_t stem_ = 0;
};

}  // namespace hetflow::serve
