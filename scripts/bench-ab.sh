#!/bin/sh
# Paired A/B of the end-to-end benchmark: the working tree (the change) against
# <parent-rev>, one run per side per seed, alternating which side goes first,
# then `bench -compare` over the two sets and every run's value per row.
#
#   scripts/bench-ab.sh <parent-rev> [pairs=10]      (make bench-ab PARENT=<rev>)
#
# The parent is exported with `git archive` into bench/out/ (git-ignored): no
# state is left in .git, and both sides keep their journals on one filesystem,
# which an fsync comparison needs. Each side runs its own bench/ and builds
# its own dcsd; nothing under bench/ or BENCHMARK.json is touched.
set -eu

[ $# -ge 1 ] || { echo "usage: $0 <parent-rev> [pairs=10]" >&2; exit 2; }
parent_rev=$1
pairs=${2:-10}
command -v python3 >/dev/null || { echo "bench-ab: python3 is needed to join the per-seed result files" >&2; exit 2; }

root=$(git rev-parse --show-toplevel)
cd "$root"
mkdir -p bench/out
work=$(mktemp -d "$root/bench/out/ab.XXXXXX")
trap 'rm -rf "$work"' EXIT
trap 'exit 130' INT TERM
mkdir "$work/parent" "$work/runs"
git archive "$parent_rev" | tar -x -C "$work/parent"

failed=0
run() { # side dir seed; a run that fails its checks is missing from the set, and fails the script at the end
	echo "== seed $3: $1" >&2
	(cd "$2" && go run ./bench -runs 1 -seed "$3" -out "$work/runs/$1-$3.json") || failed=1
}
seed=1
while [ "$seed" -le "$pairs" ]; do
	if [ $((seed % 2)) -eq 1 ]; then
		run parent "$work/parent" "$seed"; run change "$root" "$seed"
	else
		run change "$root" "$seed"; run parent "$work/parent" "$seed"
	fi
	seed=$((seed + 1))
done

for side in parent change; do # the joined sets outlive the script, for a later -compare
	python3 -c 'import json,sys; json.dump([r for f in sys.argv[1:] for r in json.load(open(f))], sys.stdout)' \
		"$work"/runs/$side-*.json >bench/out/ab-$side.json
done
go run ./bench -compare bench/out/ab-parent.json bench/out/ab-change.json

echo
echo "every run, by seed (parent / change):"
python3 - bench/out/ab-parent.json bench/out/ab-change.json <<'PY'
import json, sys
sides = [json.load(open(f)) for f in sys.argv[1:3]]
rows = []
for r in sides[0]:
    for m in r["result"]["metrics"]:
        if (r["workload"], m) not in rows:
            rows.append((r["workload"], m))
for w, m in rows:
    for name, runs in zip(("parent", "change"), sides):
        vals = ["%d:%.4g" % (r["seed"], r["result"]["metrics"][m]["value"])
                for r in sorted(runs, key=lambda r: r["seed"]) if r["workload"] == w]
        print("%-16s %-18s %-6s %s" % (w, m, name, " ".join(vals)))
PY
[ "$failed" -eq 0 ] || { echo "bench-ab: some runs failed their checks (see above); they are missing from the sets" >&2; exit 1; }
