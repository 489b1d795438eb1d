#!/usr/bin/env bash
# Paired benchmark comparison: a git ref against the working tree.
#
#   tools/bench_pairs.sh <ref> <workload | all> [pairs=10]
#
# Runs `python3 perfbench/run.py --workload W --seed i --seconds 25 --trace 0`
# from the ref and from the working tree for pair i = 0 .. pairs-1.  Both
# sides of a pair use seed i, and the side that runs first alternates from
# pair to pair.  `all` pairs every workload that BENCHMARK.json names, one
# after another.  The ref is exported with `git archive` into a temporary
# directory, removed afterwards.  Prints one block per workload: for each
# end-to-end metric, the median of each side and the interquartile spread
# (q3 - q1) of the ref's runs, and the number of pairs whose run_s is lower
# on the working tree (ties count for neither side).  Exits 0 when every run
# succeeded and passed its correctness check, 1 when one did not, 2 on a
# usage error.
set -u

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
    echo "usage: $0 <ref> <workload | all> [pairs=10]" >&2
    exit 2
fi
ref=$1 pairs=${3:-10}
case $pairs in
    '' | *[!0-9]* | 0) echo "error: pairs must be a positive integer" >&2; exit 2 ;;
esac
repo=$(git rev-parse --show-toplevel) || exit 2
git -C "$repo" rev-parse --verify --quiet "$ref^{commit}" >/dev/null || {
    echo "error: $ref is not a commit" >&2
    exit 2
}
if [ "$2" = all ]; then
    workloads=$(python3 -c 'import json, sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' \
        "$repo/BENCHMARK.json") || exit 2
else
    workloads=$2
fi
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/ref"
git -C "$repo" archive "$ref" | tar -x -C "$work/ref" || exit 2

failed=0
run_side() {              # <workload> <side> <tree> <seed>
    local workload=$1 side=$2 tree=$3 seed=$4 out
    out=$(cd "$tree" && python3 perfbench/run.py --workload "$workload" --seed "$seed" \
        --seconds 25 --trace 0 2>"$work/stderr")
    if [ $? -ne 0 ]; then
        echo "$workload pair $seed, $side: run failed: $(tail -n 1 "$work/stderr")" >&2
        failed=1
        return
    fi
    printf '%s\t%s\t%s\n' "$seed" "$side" "$(printf '%s\n' "$out" | tail -n 1)" \
        >>"$work/results.$workload"
    echo "$workload pair $seed, $side: done"
}

for workload in $workloads; do
    for ((i = 0; i < pairs; i++)); do
        if ((i % 2 == 0)); then
            run_side "$workload" ref "$work/ref" "$i"
            run_side "$workload" tree "$repo" "$i"
        else
            run_side "$workload" tree "$repo" "$i"
            run_side "$workload" ref "$work/ref" "$i"
        fi
    done
done

for workload in $workloads; do
    touch "$work/results.$workload"
    python3 - "$work/results.$workload" "$ref" "$workload" <<'PY'
import json
import statistics
import sys

path, ref, workload = sys.argv[1:]
runs = {}
incorrect = 0
for line in open(path):
    pair, side, doc = line.rstrip("\n").split("\t", 2)
    doc = json.loads(doc)
    if not doc["correct"]:
        print(f"pair {pair}, {side}: {doc['failed']} of {doc['attempted']} operations "
              f"failed their check", file=sys.stderr)
        incorrect += 1
    runs.setdefault(side, {})[int(pair)] = {k: v["value"] for k, v in doc["metrics"].items()}
ref_runs, tree_runs = runs.get("ref", {}), runs.get("tree", {})
names = sorted({name for r in (*ref_runs.values(), *tree_runs.values()) for name in r})
print(f"{workload}: {ref} (ref, {len(ref_runs)} runs) against the working tree "
      f"(tree, {len(tree_runs)} runs)")
for name in names:
    a = [r[name] for r in ref_runs.values() if name in r]
    b = [r[name] for r in tree_runs.values() if name in r]
    if not a or not b:
        continue
    q1, _, q3 = statistics.quantiles(a, n=4, method="inclusive") if len(a) > 1 else (a * 3)
    print(f"  {name}: ref median {statistics.median(a):.6g}, tree median "
          f"{statistics.median(b):.6g}, ref spread q3-q1 {q3 - q1:.6g}")
both = sorted(set(ref_runs) & set(tree_runs))
wins = sum(tree_runs[i]["run_s"] < ref_runs[i]["run_s"] for i in both)
losses = sum(tree_runs[i]["run_s"] > ref_runs[i]["run_s"] for i in both)
print(f"  run_s: tree lower in {wins} of {len(both)} pairs, higher in {losses}")
sys.exit(1 if incorrect else 0)
PY
    [ $? -eq 0 ] || failed=1
done
exit $failed
