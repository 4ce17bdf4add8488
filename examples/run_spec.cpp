#include "run_spec.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <utility>

#include "common/parse.hpp"
#include "designs/registry.hpp"
#include "tpg/generators.hpp"

namespace fdbist::cli {

namespace {

bool report(const Error& e) {
  std::fprintf(stderr, "fdbist_cli: %s\n", e.to_string().c_str());
  return false;
}

} // namespace

bool store(const Flag& row, const std::string& text) {
  if (auto* t = std::get_if<std::size_t*>(&row.target)) {
    const std::size_t hi = row.max >= 0x1p64
                               ? std::numeric_limits<std::size_t>::max()
                               : std::size_t(row.max);
    const auto v =
        common::parse_size(text.c_str(), row.name, std::size_t(row.min), hi);
    if (!v) return report(v.error());
    **t = *v;
  } else if (auto* t = std::get_if<double*>(&row.target)) {
    const auto v =
        common::parse_double(text.c_str(), row.name, row.min, row.max);
    if (!v) return report(v.error());
    **t = *v;
  } else if (auto* t = std::get_if<std::string*>(&row.target)) {
    if (double(text.size()) < row.min)
      return report({ErrorCode::InvalidArgument,
                     std::string(row.name) + ": expected a non-empty value"});
    **t = text;
  } else {
    *std::get<bool*>(row.target) = true;
  }
  return true;
}

bool parse_flags(std::span<const std::string> args,
                 std::span<const Flag> rows, const std::string& command) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    const auto row = std::find_if(rows.begin(), rows.end(), [&](const Flag& f) {
      return args[i] == f.name;
    });
    if (row == rows.end()) {
      std::fprintf(stderr, "fdbist_cli: unknown %s flag \"%s\"\n",
                   command.c_str(), args[i].c_str());
      return false;
    }
    const bool is_switch = std::holds_alternative<bool*>(row->target);
    if (!is_switch && ++i == args.size()) {
      std::fprintf(stderr, "fdbist_cli: %s requires a value\n", row->name);
      return false;
    }
    if (!store(*row, is_switch ? std::string() : args[i])) return false;
  }
  return true;
}

std::optional<std::size_t> command_index(std::span<const std::string> args,
                                         std::size_t& threads) {
  const std::size_t at = !args.empty() && args[0] == "--threads" ? 2 : 0;
  const Flag row{"--threads", 0, 4096, &threads};
  if (!parse_flags(args.first(std::min(at, args.size())), {&row, 1},
                   "global") ||
      at >= args.size())
    return std::nullopt;
  return at;
}

bool parse_run(std::span<const std::string> args, RunSpec& spec,
               std::span<const Flag> extra) {
  const auto at = command_index(args, spec.threads);
  if (!at || args.size() < *at + 4) return false;
  const auto design = resolve_design(args[*at + 1]);
  if (!design) return false;
  spec.design = *design;
  spec.generator = args[*at + 2];
  if (!store({"<vectors>", 1, kMaxVectors, &spec.vectors}, args[*at + 3]) ||
      make_generator(spec.generator, spec.vectors, 12) == nullptr)
    return false;

  std::vector<Flag> rows = {
      {"--signature", 2, 31, &spec.signature},
      {"--schedule-cache", 1, kUnbounded, &spec.cache_dir},
      {"--no-schedule-cache", 0, 0, &spec.no_cache},
  };
  rows.insert(rows.end(), extra.begin(), extra.end());
  if (!parse_flags(args.subspan(*at + 4), rows, args[*at])) return false;
  if (spec.no_cache && !spec.cache_dir.empty())
    return report({ErrorCode::InvalidArgument,
                   "--no-schedule-cache conflicts with --schedule-cache"});
  return true;
}

std::vector<std::string> to_argv(const RunSpec& spec,
                                 const std::string& command) {
  std::vector<std::string> argv = {"--threads",
                                   std::to_string(spec.threads),
                                   command,
                                   spec.design,
                                   spec.generator,
                                   std::to_string(spec.vectors)};
  if (spec.signature != 0)
    argv.insert(argv.end(), {"--signature", std::to_string(spec.signature)});
  if (!spec.cache_dir.empty())
    argv.insert(argv.end(), {"--schedule-cache", spec.cache_dir});
  if (spec.no_cache) argv.push_back("--no-schedule-cache");
  return argv;
}

std::optional<std::string> resolve_design(const std::string& name) {
  std::string upper = name;
  std::transform(upper.begin(), upper.end(), upper.begin(),
                 [](unsigned char c) { return char(std::toupper(c)); });
  if (designs::has_design(upper)) return upper;
  std::fprintf(stderr,
               "fdbist_cli: unknown design \"%s\" (try `fdbist_cli "
               "designs`)\n",
               name.c_str());
  return std::nullopt;
}

std::unique_ptr<tpg::Generator> make_generator(const std::string& name,
                                               std::size_t vectors,
                                               int width) {
  using tpg::GeneratorKind;
  static constexpr std::pair<const char*, GeneratorKind> kKinds[] = {
      {"lfsr1", GeneratorKind::Lfsr1}, {"lfsr2", GeneratorKind::Lfsr2},
      {"lfsrd", GeneratorKind::LfsrD}, {"lfsrm", GeneratorKind::LfsrM},
      {"ramp", GeneratorKind::Ramp}};
  for (const auto& [n, kind] : kKinds)
    if (name == n) return tpg::make_generator(kind, width);
  if (name == "mixed")
    return std::make_unique<tpg::SwitchedLfsr>(width, vectors / 2, 1);
  std::fprintf(stderr,
               "fdbist_cli: unknown generator \"%s\" (lfsr1 lfsr2 lfsrd "
               "lfsrm ramp mixed)\n",
               name.c_str());
  return nullptr;
}

} // namespace fdbist::cli
