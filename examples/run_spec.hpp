// fdbist_cli's argument grammar: one RunSpec names a run, and one
// table-driven loop parses every flag.
//
// A run command line is `[--threads N] <command> <design> <generator>
// <vectors> [flags]`. The flags shared by every run command
// (--signature, --schedule-cache, --no-schedule-cache) and each
// command's own flags are rows of a flag table, {flag, min, max,
// target}: a number must lie in [min, max], a string must be at least
// min characters long, and a bool target makes a switch that takes no
// value. to_argv writes a RunSpec back as exactly the words parse_run
// reads, which is how `coordinate` hands its run to the worker
// processes it spawns.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "tpg/generator.hpp"

namespace fdbist::cli {

/// One run of the fault engine: the Table 4/6 cell (design, generator,
/// vectors), the compactor, the schedule-cache choice and the
/// fault-sim thread count.
struct RunSpec {
  std::string design;        ///< registry name, upper case
  std::string generator;     ///< lfsr1 lfsr2 lfsrd lfsrm ramp mixed
  std::size_t vectors = 0;
  std::size_t signature = 0; ///< --signature W: MISR width, 0 = off
  std::string cache_dir;     ///< --schedule-cache DIR
  bool no_cache = false;     ///< --no-schedule-cache
  std::size_t threads = 0;   ///< --threads N: 0 = one per hardware thread

  bool operator==(const RunSpec&) const = default;
};

/// Largest <vectors> (and slice size) a run accepts.
inline constexpr std::size_t kMaxVectors =
    std::numeric_limits<std::int32_t>::max();
/// "No bound" for a row's max.
inline constexpr double kUnbounded = std::numeric_limits<double>::infinity();

/// One row of a flag table.
struct Flag {
  const char* name;
  double min;
  double max;
  std::variant<bool*, std::size_t*, double*, std::string*> target;
};

/// Store `text` into `row`'s target, checked against its bounds. false
/// after printing a one-line diagnostic that names the row.
bool store(const Flag& row, const std::string& text);

/// The one flag loop: every word of `args` must be a flag of `rows`,
/// followed by its value unless it is a switch. `command` names the
/// command in the unknown-flag diagnostic. false after printing a
/// one-line diagnostic.
bool parse_flags(std::span<const std::string> args,
                 std::span<const Flag> rows, const std::string& command);

/// Index of the command word in `args` (the command line after the
/// program name), past an optional global `--threads N`, which is
/// stored in `threads`. nullopt when that prefix is malformed or no
/// command follows.
std::optional<std::size_t> command_index(std::span<const std::string> args,
                                         std::size_t& threads);

/// Parse a run command line (after the program name) into `spec`,
/// accepting the shared run flags plus the command's `extra` rows.
/// false after printing a one-line diagnostic (a usage error).
bool parse_run(std::span<const std::string> args, RunSpec& spec,
               std::span<const Flag> extra = {});

/// The command line parse_run reads back as `spec` for `command`.
std::vector<std::string> to_argv(const RunSpec& spec,
                                 const std::string& command);

/// The registry name `name` resolves to, case-insensitively; nullopt
/// after a one-line diagnostic when there is none.
std::optional<std::string> resolve_design(const std::string& name);

/// The generator called `name` at `width` bits (`mixed` switches
/// halfway through `vectors`); nullptr after a one-line diagnostic
/// listing the accepted names.
std::unique_ptr<tpg::Generator> make_generator(const std::string& name,
                                               std::size_t vectors,
                                               int width);

} // namespace fdbist::cli
