// Fixture: an example reading its command line with the C converters:
// "6x" reads as 6 and "abc" as 0, with no error.
#include <cstdio>
#include <cstdlib>

int main(int argc, char** argv) {
  if (argc < 3) return 2;
  const double years = std::atof(argv[1]);
  const int cores = std::atoi(argv[2]);
  std::printf("%g %d\n", years, cores);
  return 0;
}
