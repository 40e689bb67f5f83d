// Observations for awareness-process tests, built the way an agent builds
// them: every observation a Feed hands out indexes the same SignalTable,
// which grows as new names appear, so a process under test keeps one table
// for its whole life.
//
//   Feed obs;
//   stimulus.update(t, obs({{"load", 5.0}}));
#pragma once

#include <initializer_list>
#include <string_view>
#include <utility>

#include "core/observation.hpp"

namespace sa::test::support {

class Feed {
 public:
  Feed() = default;
  Feed(const Feed&) = delete;
  Feed& operator=(const Feed&) = delete;

  /// This step's observation: exactly the listed signals, sampled.
  const core::Observation& operator()(
      std::initializer_list<std::pair<std::string_view, double>> samples) {
    obs_.clear();
    for (const auto& [name, value] : samples) obs_.set(table_.add(name), value);
    return obs_;
  }

 private:
  core::SignalTable table_;
  core::Observation obs_{table_};
};

}  // namespace sa::test::support
