#include "diag/transparent.h"

#include <stdexcept>

#include "march/expand.h"

namespace pmbist::diag {

march::OpStream transparent_stream(const march::MarchAlgorithm& alg,
                                   const memsim::MemoryGeometry& geometry,
                                   const std::vector<memsim::Word>& initial) {
  if (initial.size() != geometry.num_words())
    throw std::invalid_argument("seed vector size mismatch");
  march::OpStream stream = march::expand(alg, geometry);
  for (auto& op : stream) {
    if (op.kind == march::MemOp::Kind::Pause) continue;
    op.data = (op.data ^ initial[op.addr]) & geometry.word_mask();
  }
  return stream;
}

bool transparent_restore_needed(const march::MarchAlgorithm& alg,
                                int word_bits) {
  if (march::final_data_value(alg) < 0)
    throw std::invalid_argument(
        "transparent transform requires a deterministic final value: " +
        alg.name());
  // The test leaves each cell at apply_background(d_final, B_last) ^ s_a.
  // When that prefix is non-zero (d_final = 1, or a non-zero final data
  // background), the hardware scheme appends a restoring element.
  const auto backgrounds = march::standard_backgrounds(word_bits);
  const memsim::Word mask =
      word_bits >= 64 ? ~memsim::Word{0} : ((memsim::Word{1} << word_bits) - 1);
  return march::apply_background(march::final_data_value(alg) == 1,
                                 backgrounds.back(), mask) != 0;
}

march::OpStream transparent_stream_with_restore(
    const march::MarchAlgorithm& alg, const memsim::MemoryGeometry& geometry,
    const std::vector<memsim::Word>& initial) {
  auto stream = transparent_stream(alg, geometry, initial);
  if (transparent_restore_needed(alg, geometry.word_bits)) {
    for (memsim::Address a = 0; a < geometry.num_words(); ++a)
      stream.push_back(march::MemOp::write(0, a, initial[a]));
  }
  return stream;
}

TransparentResult run_transparent(const march::MarchAlgorithm& alg,
                                  memsim::Memory& memory,
                                  std::size_t max_failures) {
  const auto& g = memory.geometry();
  if (march::final_data_value(alg) < 0)
    throw std::invalid_argument(
        "transparent transform requires a deterministic final value: " +
        alg.name());

  // Capture the seed (the hardware equivalent is the signature-prediction
  // read pass).
  std::vector<memsim::Word> initial(g.num_words());
  for (memsim::Address a = 0; a < g.num_words(); ++a)
    initial[a] = memory.read(0, a);

  auto stream = transparent_stream_with_restore(alg, g, initial);

  auto run = march::run_stream(stream, memory, max_failures);

  TransparentResult result;
  result.passed = run.passed();
  result.failures = std::move(run.failures);

  result.contents_preserved = true;
  for (memsim::Address a = 0; a < g.num_words(); ++a) {
    if (memory.read(0, a) != initial[a]) {
      result.contents_preserved = false;
      break;
    }
  }
  return result;
}

}  // namespace pmbist::diag
