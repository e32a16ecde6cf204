#!/usr/bin/env bash
# Build the benchmark and serve.exe from this checkout, then run one
# workload:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# The last line of standard output is the run's JSON result.
set -u
cd "$(dirname "$0")/.." || exit 2
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: not a full checkout (dune-project, lib/ and bin/ are needed)" >&2
  exit 2
fi
# no shared dune cache: the run reads and writes only inside the checkout
DUNE_CACHE=disabled dune build --root . ./perfbench/main.exe ./bin/serve.exe 1>&2 || exit 2
if command -v git >/dev/null 2>&1 && commit=$(git rev-parse HEAD 2>/dev/null); then :; else
  commit="tree-md5:$(find lib bin perfbench -type f \( -name '*.ml' -o -name '*.mli' -o -name dune \) | LC_ALL=C sort | xargs cat | md5sum | cut -c1-12)"
fi
exec ./_build/default/perfbench/main.exe --nproc "$(nproc)" --commit "$commit" \
  --serve-exe ./_build/default/bin/serve.exe --out .perfbench "$@"
