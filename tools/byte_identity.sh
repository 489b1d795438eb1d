#!/usr/bin/env bash
# Byte-identity check: run the shipped fixtures on a git ref and on the
# working tree, then compare every output file.
#
#   tools/byte_identity.sh <ref> [work-dir]
#
# Runs half_disc (--order 3 --target-h 0.35 --split 4 --formats svg,vtk),
# nautilus (--order 3 --target-h 0.5 --split 2), polygon_III and geometry_I
# (--order 3 --target-h 0.35 --split 2 --formats msh), and holed_nautilus
# (--target-h 0.35, which ends with a tracing/decomposition exit code).
# Each run's exit code is written next to its artifacts, so it is compared
# too.  The ref is exported with `git archive` into the work directory (a
# fresh temporary directory by default, removed afterwards).  Exits 0 when
# `diff -r` finds no difference, 1 when it does, 2 on a usage error.
set -u

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: $0 <ref> [work-dir]" >&2
    exit 2
fi
ref=$1
repo=$(git rev-parse --show-toplevel) || exit 2
git -C "$repo" rev-parse --verify --quiet "$ref^{commit}" >/dev/null || {
    echo "error: $ref is not a commit" >&2
    exit 2
}
if [ $# -eq 2 ]; then
    work=$2
    mkdir -p "$work"
else
    work=$(mktemp -d)
    trap 'rm -rf "$work"' EXIT
fi
mkdir -p "$work/ref"
git -C "$repo" archive "$ref" | tar -x -C "$work/ref" || exit 2

run_fixtures() {          # <source tree> <output dir>
    local tree=$1 out=$2 name flags rc
    while read -r name flags; do
        PYTHONPATH="$tree/src" python3 -m quadfield.cli run \
            "$tree/src/quadfield/fixtures/$name.json" $flags \
            --out "$out/$name" >/dev/null 2>"$out/$name.stderr"
        rc=$?
        mkdir -p "$out/$name"
        echo "$rc" >"$out/$name/exit_code"
        echo "$name: exit $rc"
    done <<'FIXTURES'
half_disc --order 3 --target-h 0.35 --split 4 --formats svg,vtk
nautilus --order 3 --target-h 0.5 --split 2
polygon_III --order 3 --target-h 0.35 --split 2 --formats msh
geometry_I --order 3 --target-h 0.35 --split 2 --formats msh
holed_nautilus --target-h 0.35
FIXTURES
}

rm -rf "$work/out-ref" "$work/out-tree"
mkdir -p "$work/out-ref" "$work/out-tree"
echo "== $ref"
run_fixtures "$work/ref" "$work/out-ref"
echo "== working tree"
run_fixtures "$repo" "$work/out-tree"
# stderr may name the output directory; compare the artifacts only
rm -f "$work"/out-ref/*.stderr "$work"/out-tree/*.stderr
if diff -r "$work/out-ref" "$work/out-tree"; then
    echo "byte-identical"
else
    echo "outputs differ" >&2
    exit 1
fi
