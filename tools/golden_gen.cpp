/// golden_gen: (re)generate the golden regression fixtures under
/// tests/golden/. Each fixture pins the headline values of one paper
/// table/figure as computed by the CURRENT code. The six compact
/// fixtures (Tables 2 and 3, Figs. 2 and 9, the nanowire backend and the
/// circuit figures) are defined once in tests/compact_golden_fixtures.h,
/// which tests/test_golden.cpp recomputes and compares against the
/// files with a tight relative tolerance — so any PR that shifts the
/// physics must regenerate the fixtures DELIBERATELY and show the diff
/// in review.
///
/// tcad_equivalence.json pins the TCAD stack itself: the equivalence
/// tier's three devices under its tight stops (currents at both tier
/// points, psi/n/p on the surface row and channel-centre column; see
/// tests/tcad_equivalence_fixture.h). tests/test_solver_equivalence.cpp
/// holds its Gummel snapshots against it at the tier's own bounds. It
/// runs six cold TCAD solves, so expect about half a minute.
///
///   ./golden_gen [output_dir]     # default: tests/golden
///
/// Values are written with %.17g (io::JsonWriter), so fixtures
/// round-trip doubles bit-exactly and the tolerance only absorbs
/// genuine numeric drift, not serialization.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "compact_golden_fixtures.h"
#include "core/scaling_study.h"
#include "io/writer.h"
#include "tcad_equivalence_fixture.h"

namespace {

void write_fixture(const std::string& dir, const std::string& name,
                   const subscale::golden::Values& values) {
  subscale::io::JsonWriter w;
  w.begin_object();
  w.key("fixture");
  w.value(name);
  w.key("values");
  w.begin_object();
  for (const auto& [key, value] : values) {
    w.key(key);
    w.value(value);
  }
  w.end_object();
  w.end_object();

  const std::string path = dir + "/" + name + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "golden_gen: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  const std::string text = w.str();
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  std::printf("golden_gen: wrote %s (%zu values)\n", path.c_str(),
              values.size());
}

}  // namespace

int main(int argc, char** argv) {
  const std::string dir = argc > 1 ? argv[1] : "tests/golden";
  std::filesystem::create_directories(dir);

  const subscale::core::ScalingStudy study;  // what test_golden uses
  for (const subscale::golden::CompactFixture& f :
       subscale::golden::compact_fixtures()) {
    write_fixture(dir, f.name, f.values(study));
  }

  namespace eq = subscale::equivalence;
  subscale::golden::Values tcad;
  for (const eq::Fixture& f : eq::fixtures()) {
    const eq::Snapshot s = eq::snapshot_under(f.spec, eq::tight());
    for (auto& value : eq::fixture_values(f.name, s)) {
      tcad.push_back(std::move(value));
    }
  }
  write_fixture(dir, "tcad_equivalence", tcad);
  return 0;
}
