double pack(double x) {
  const float narrowed = static_cast<float>(x);  // ash-lint: allow(float-physics): fixture-sanctioned violation
  return static_cast<double>(narrowed);
}
double legacy_decay(double x) {
  return expf(x);  // ash-lint: allow(float-physics): fixture-sanctioned violation
}
double quick_exp_shim(double x) {  // ash-lint: allow(float-physics): fixture-sanctioned violation
  return 1.0 + x;
}
