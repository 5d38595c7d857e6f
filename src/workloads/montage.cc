#include "workloads/montage.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <string>
#include <vector>

#include "common/units.h"

namespace memfs::workloads {

namespace {

std::string Zero4(std::uint32_t n) {
  std::string s = std::to_string(n);
  return std::string(s.size() < 5 ? 5 - s.size() : 0, '0') + s;
}

sim::SimTime CpuTime(double seconds, std::uint64_t size_scale) {
  const double scaled = seconds / static_cast<double>(size_scale);
  return static_cast<sim::SimTime>(scaled *
                                   static_cast<double>(units::kNanosPerSec));
}

}  // namespace

std::uint32_t MontageImageCount(std::uint32_t degree) {
  // 2488 images for the 6x6 M17 mosaic (Table 2); counts grow with area.
  return static_cast<std::uint32_t>(2488ull * degree * degree / 36ull);
}

mtc::Workflow BuildMontage(const MontageParams& params) {
  mtc::Workflow wf;
  wf.name = "montage-" + std::to_string(params.degree) + "x" +
            std::to_string(params.degree);

  const std::uint32_t images = std::max<std::uint32_t>(
      MontageImageCount(params.degree) / std::max(params.task_scale, 1u), 4);
  const std::uint64_t scale = std::max<std::uint64_t>(params.size_scale, 1);

  const std::uint64_t input_size = units::MiB(2) / scale;
  const std::uint64_t projected_size = units::MiB(4) / scale;
  const std::uint64_t diff_size = units::MiB(2) / scale;
  const std::uint64_t corrected_size = units::MiB(2) / scale;
  const std::uint64_t table_size = units::KiB(256) / scale + 1;
  const std::uint64_t corrections_size = units::MiB(1) / scale + 1;

  const std::string base = "/montage" + std::to_string(params.degree);
  wf.directories = {base,           base + "/raw",  base + "/proj",
                    base + "/diff", base + "/corr", base + "/tables"};

  auto input_path = [&](std::uint32_t i) {
    return base + "/raw/img_" + Zero4(i) + ".fits";
  };
  auto projected_path = [&](std::uint32_t i) {
    return base + "/proj/p_" + Zero4(i) + ".fits";
  };
  auto diff_path = [&](std::uint32_t i) {
    return base + "/diff/d_" + Zero4(i) + ".fits";
  };
  auto corrected_path = [&](std::uint32_t i) {
    return base + "/corr/c_" + Zero4(i) + ".fits";
  };

  // Each loop adds its files in index order, so file i of a stage is the
  // stage's first id plus i.
  using mtc::FileId;

  // stage_in: the input images are copied into the runtime file system.
  const auto first_input = static_cast<FileId>(wf.files.size());
  for (std::uint32_t i = 0; i < images; ++i) {
    const FileId out = wf.AddFile(input_path(i), input_size);
    wf.AddTask("stage_in-" + Zero4(i), "stage_in", {}, std::array{out});
  }

  // mProjectPP: one task per image, CPU-bound.
  const auto first_projected = static_cast<FileId>(wf.files.size());
  for (std::uint32_t i = 0; i < images; ++i) {
    const FileId out = wf.AddFile(projected_path(i), projected_size);
    wf.AddTask("mProjectPP-" + Zero4(i), "mProjectPP",
               std::array{first_input + i}, std::array{out},
               CpuTime(params.project_cpu_s, scale));
  }

  // mImgTbl: global aggregation over all projected images.
  const FileId images_table =
      wf.AddFile(base + "/tables/images.tbl", table_size);
  {
    std::vector<FileId> inputs(images);
    for (std::uint32_t i = 0; i < images; ++i) inputs[i] = first_projected + i;
    wf.AddTask("mImgTbl-0", "mImgTbl", inputs, std::array{images_table},
               CpuTime(params.aggregate_cpu_s, scale));
  }

  // mDiffFit: one task per overlapping pair; a grid image overlaps its
  // right, lower and lower-right neighbours, i.e. ~3 pairs per image. Each
  // task reads TWO projected images — the access pattern AMFS Shell cannot
  // fully serve locally.
  const std::uint32_t columns = std::max<std::uint32_t>(
      static_cast<std::uint32_t>(std::max(1.0, std::sqrt(double(images)))), 1);
  const auto first_diff = static_cast<FileId>(wf.files.size());
  std::uint32_t diffs = 0;
  for (std::uint32_t i = 0; i < images; ++i) {
    const std::uint32_t col = i % columns;
    const std::uint32_t neighbours[3] = {
        i + 1,            // right
        i + columns,      // below
        i + columns + 1,  // diagonal
    };
    for (std::uint32_t k = 0; k < 3; ++k) {
      const std::uint32_t j = neighbours[k];
      if (j >= images) continue;
      if (k == 0 && col + 1 == columns) continue;           // row edge
      if (k == 2 && col + 1 == columns) continue;           // diagonal edge
      const FileId out = wf.AddFile(diff_path(diffs), diff_size);
      wf.AddTask("mDiffFit-" + Zero4(diffs), "mDiffFit",
                 std::array{first_projected + i, first_projected + j},
                 std::array{out}, CpuTime(params.diff_cpu_s, scale));
      ++diffs;
    }
  }

  // mConcatFit: aggregates every fit result.
  const FileId fits_table = wf.AddFile(base + "/tables/fits.tbl", table_size);
  {
    std::vector<FileId> inputs(diffs);
    for (std::uint32_t i = 0; i < diffs; ++i) inputs[i] = first_diff + i;
    wf.AddTask("mConcatFit-0", "mConcatFit", inputs, std::array{fits_table},
               CpuTime(params.aggregate_cpu_s, scale));
  }

  // mBgModel: computes the background corrections from the fit table.
  const FileId corrections =
      wf.AddFile(base + "/tables/corrections.tbl", corrections_size);
  wf.AddTask("mBgModel-0", "mBgModel", std::array{fits_table, images_table},
             std::array{corrections}, CpuTime(params.aggregate_cpu_s, scale));

  // mBackground: per image, applies the corrections.
  const auto first_corrected = static_cast<FileId>(wf.files.size());
  for (std::uint32_t i = 0; i < images; ++i) {
    const FileId out = wf.AddFile(corrected_path(i), corrected_size);
    wf.AddTask("mBackground-" + Zero4(i), "mBackground",
               std::array{first_projected + i, corrections}, std::array{out},
               CpuTime(params.background_cpu_s, scale));
  }

  // mAdd: global aggregation into the final mosaic.
  {
    const FileId mosaic = wf.AddFile(
        base + "/mosaic.fits",
        std::max<std::uint64_t>(images * (units::MiB(1) / scale), 1));
    std::vector<FileId> inputs(images);
    for (std::uint32_t i = 0; i < images; ++i) inputs[i] = first_corrected + i;
    wf.AddTask("mAdd-0", "mAdd", inputs, std::array{mosaic},
               CpuTime(params.aggregate_cpu_s, scale));
  }

  wf.ShrinkToFit();
  return wf;
}

}  // namespace memfs::workloads
