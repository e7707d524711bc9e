// Seeded violation: the admission slack re-spelled outside src/block/privacy_block.h. A
// second copy of the rule can drift from the one the blocks enforce; call WithinCapacity
// or OrderExhausted instead.
namespace dpack {

bool Fits(double consumed, double cap) {
  return consumed <= cap + 1e-9 * (1.0 + cap);  // <- admission-slack must fire here.
}

bool Spent(double consumed, double cap) {
  double slack = 1E-09*(1+cap);  // <- and here, however the literals are spelled.
  return !(consumed + slack < cap);
}

}  // namespace dpack
