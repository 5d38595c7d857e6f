// Aligned text-table and CSV emission for the benchmark harnesses.
//
// `paper_figures` renders every paper table and figure through it from its
// ledger, and the ablations, profiles and examples print their rows the same
// way; `--csv` gives the machine-readable form.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace memfs {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  Table& AddRow(std::vector<std::string> cells);

  // Convenience cell formatting.
  static std::string Num(double value, int precision = 1);
  static std::string Int(std::uint64_t value);

  void PrintText(std::ostream& os) const;
  void PrintCsv(std::ostream& os) const;

  // Honours a "--csv" argument if present; text otherwise.
  void Print(std::ostream& os, bool csv) const {
    if (csv) {
      PrintCsv(os);
    } else {
      PrintText(os);
    }
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

// True when argv contains "--csv"; shared by all bench mains.
bool WantCsv(int argc, char** argv);

}  // namespace memfs
