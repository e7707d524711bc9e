// Seeded violation: bare float equality on budget quantities. Budget feasibility must go
// through the one blessed helper, WithinCapacity (src/block/privacy_block.h); exact == on
// doubles is representation-dependent.
namespace dpack {

bool ExactlyExhausted(double consumed, double capacity) {
  return consumed == capacity;  // <- float-equality must fire here.
}

bool DemandMatches(double demand, double granted) {
  return granted != demand;  // <- and here.
}

}  // namespace dpack
