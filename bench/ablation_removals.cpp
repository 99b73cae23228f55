// Future-work experiment (paper Sec. V, item on "more realistic update
// operations, including both insertions and removals"): how do the engines
// behave when a fraction of the update stream deletes edges? Removals break
// the monotone top-k fast path (incremental engines must re-rank) and force
// the incremental-CC engine to rebuild affected union-find structures, so
// this sweep quantifies the price of non-monotonicity.
//
// Since the incremental engines re-rank through the threshold-pruned top-k
// layer (src/queries/top_k.hpp), each cell also snapshots the process-global
// pruning counters: how many score blocks the removal-path reranks skipped
// outright versus scanned, and how often the bounded candidate pool refilled
// the heap without touching the score table at all. The --json output keeps
// those per (removal fraction, scale factor) so the trend — pruning pays off
// more as the table grows — is machine-checkable.
//
// Usage: ablation_removals [--max-sf=32] [--repeats=3] [--seed=42]
//                          [--json=PATH]
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "datagen/generator.hpp"
#include "harness/report.hpp"
#include "harness/runner.hpp"
#include "queries/top_k.hpp"
#include "support/flags.hpp"
#include "support/telemetry/metrics.hpp"

namespace {

namespace telemetry = grbsm::telemetry;

/// One (removal fraction, scale factor) cell of the sweep, for --json.
struct CellResult {
  double frac = 0.0;
  unsigned scale = 0;
  std::vector<double> update_s;  ///< geomean per tool, tools order
  queries::PruneStats prune;     ///< counters over verify + timed repeats
};

void write_json(const std::string& path,
                const std::vector<harness::ToolSpec>& tools,
                const std::vector<CellResult>& cells) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::cerr << "ablation_removals: cannot write --json=" << path << "\n";
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"ablation_removals\",\n  \"tools\": [");
  for (std::size_t t = 0; t < tools.size(); ++t)
    std::fprintf(f, "%s\"%s\"", t ? ", " : "", tools[t].key.c_str());
  std::fprintf(f, "],\n  \"cells\": [");
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const CellResult& r = cells[c];
    std::fprintf(f,
                 "%s\n    {\"removal_frac\": %.2f, \"scale\": %u, "
                 "\"update_s\": [",
                 c ? "," : "", r.frac, r.scale);
    for (std::size_t t = 0; t < r.update_s.size(); ++t)
      std::fprintf(f, "%s%.6g", t ? ", " : "", r.update_s[t]);
    std::fprintf(f,
                 "],\n     \"prune\": {\"blocks_total\": %llu, "
                 "\"blocks_scanned\": %llu, \"blocks_skipped\": %llu, "
                 "\"pool_hits\": %llu, \"pool_rebuilds\": %llu, "
                 "\"bound_rebuilds\": %llu}}",
                 static_cast<unsigned long long>(r.prune.blocks_total),
                 static_cast<unsigned long long>(r.prune.blocks_scanned),
                 static_cast<unsigned long long>(r.prune.blocks_skipped),
                 static_cast<unsigned long long>(r.prune.pool_hits),
                 static_cast<unsigned long long>(r.prune.pool_rebuilds),
                 static_cast<unsigned long long>(r.prune.bound_rebuilds));
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  const grbsm::support::Flags flags(argc, argv);
  const auto max_sf = static_cast<unsigned>(flags.get_int("max-sf", 32));
  const int repeats = static_cast<int>(flags.get_int("repeats", 3));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  const std::string json_path = flags.get("json", "");
  flags.reject_unqueried("ablation_removals");
  const std::vector<double> removal_fracs = {0.0, 0.15, 0.3};

  const std::vector<harness::ToolSpec> tools = {
      harness::find_tool("grb-batch"),
      harness::find_tool("grb-incremental"),
      harness::find_tool("grb-incremental-cc"),
      harness::find_tool("nmf-incremental"),
  };

  std::vector<CellResult> cells;
  for (const double frac : removal_fracs) {
    harness::SeriesTable table;
    char title[128];
    std::snprintf(title, sizeof title,
                  "Q2 update and reevaluation [s], removal fraction %.0f%%",
                  100.0 * frac);
    table.title = title;
    for (const auto& t : tools) table.cols.push_back(t.label);
    for (const auto& spec : datagen::scale_table()) {
      if (spec.scale_factor > max_sf) break;
      auto params = datagen::params_for_scale(spec.scale_factor, seed);
      params.frac_removals = frac;
      const auto ds = datagen::generate(params);
      const telemetry::RegistrySnapshot before =
          telemetry::Registry::instance().snapshot();
      // Answers must stay consistent across engines even with removals —
      // grb-batch stays unpruned, so this doubles as the oracle check for
      // the pruned removal path.
      harness::verify_tools(tools, harness::Query::kQ2, ds.initial,
                            ds.changes);
      table.rows.push_back(std::to_string(spec.scale_factor));
      CellResult cell;
      cell.frac = frac;
      cell.scale = spec.scale_factor;
      std::vector<double> row;
      for (const auto& tool : tools) {
        const auto rep = harness::run_repeated(
            tool, harness::Query::kQ2, ds.initial, ds.changes, repeats);
        row.push_back(rep.update_and_reeval.geomean);
      }
      cell.update_s = row;
      cell.prune = queries::prune_stats_of(
          telemetry::Registry::instance().snapshot().delta_since(before));
      cells.push_back(std::move(cell));
      table.cells.push_back(std::move(row));
    }
    harness::print_table(std::cout, table);
    // The removal rows should show real pruning work; print it next to the
    // timing table so eyeballing a run needs no --json round trip.
    if (frac > 0.0 && !cells.empty()) {
      const queries::PruneStats& p = cells.back().prune;
      std::printf(
          "  pruning at SF %u: %llu/%llu blocks skipped, %llu pool hits\n",
          cells.back().scale,
          static_cast<unsigned long long>(p.blocks_skipped),
          static_cast<unsigned long long>(p.blocks_total),
          static_cast<unsigned long long>(p.pool_hits));
    }
  }
  std::printf(
      "Reading: at 0%% the incremental engines use the monotone merge-only\n"
      "top-k fast path; with removals they re-rank from maintained score\n"
      "tables through the block-bound pruning layer (skipped blocks and\n"
      "pool hits above). All engines were cross-verified to return\n"
      "identical answers.\n");
  if (!json_path.empty()) write_json(json_path, tools, cells);
  return 0;
}
