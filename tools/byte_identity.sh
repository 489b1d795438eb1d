#!/usr/bin/env bash
# Byte-identity check: run the shipped fixtures on a git ref and on the
# working tree, then compare every output file.
#
#   tools/byte_identity.sh <ref> [work-dir]
#
# Runs half_disc (--order 3 --target-h 0.35 --split 4 --formats svg,vtk),
# nautilus (--order 3 --target-h 0.5 --split 2, and again at --split 3: at
# --split 2 a side's one inner node is the same counted from either end, so
# a side numbered from the wrong end shows only at larger splits),
# polygon_III and geometry_I
# (--order 3 --target-h 0.35 --split 2 --formats msh), polygon_III once more
# at --order 3 --target-h 0.2 --split 2 (a second mesh whose midpoint-division
# tail crosses records past its exit), holed_nautilus
# (--target-h 0.35, which ends with a tracing/decomposition exit code),
# naca_IV (--target-h 0.35, which writes mesh.json and ends with a solver
# exit code; the only fixture with a naca4 segment), naca_IV once more at
# --order 3 --target-h 0.5 --split 2 (which exits 6 after an 11,256-round
# trace, the longest in the repo, so changes to point location show there
# first), naca_IV at --target-h 0.35 --penalty 100 (which exits 6 at the
# cut after a trace of about 9 s; the only run that resolves crossings on
# polylines of about 10^5 points: 31 records, 5 crossings), half_disc
# once more with no flags (the default spacing, from
# the bounding box), and nautilus at --order 4 --target-h 0.06 --split 2, a
# full run on about 5,000 elements.  nautilus (with --formats svg,vtk,msh)
# and holed_nautilus (with --formats svg,vtk) run once more, so the SVG, VTK
# and MSH writers meet a field with four critical points and one with none,
# and a run that ends at the cut.
# polygon_III and nautilus (--order 3 --target-h 0.5 --split 2; 17
# crossings at the cut) run once more as six stage commands (mesh, solve,
# topology, trace, cut, split; same flags), so every artifact reader is
# exercised, and each tree's staged artifacts must equal its own one-shot
# run's (a run hands each stage's result to the next in memory and reads no
# artifact back, while each stage command reads the artifacts it uses).
# polygon_III and geometry_I also run `mesh` and `solve` at the benchmark's
# fine_mesh_solve flags (--order 4 --target-h 0.12), and geometry_I once more
# with --scheme dg, so the DG face terms run on curved boundary faces too;
# both run `mesh` and `solve` at --order 2 and --order 6 as well (same
# spacing), so the element kernels meet 6 and 28 nodes as well as 15.
# half_disc, nautilus, holed_nautilus and naca_IV run `mesh` at those flags,
# so the mesher meets arcs, holes and the naca4 segment at a fine spacing.
# Each run's exit code is written next to its artifacts, so it is compared
# too.  The ref is exported with `git archive` into the work directory (a
# fresh temporary directory by default, removed afterwards).  Exits 0 when
# `diff -r` finds no difference and no staged artifact differs from its
# one-shot twin, 1 otherwise, 2 on a usage error.
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
    local tree=$1 out=$2 name fixture flags rc
    while read -r name fixture flags; do
        PYTHONPATH="$tree/src" python3 -m quadfield.cli run \
            "$tree/src/quadfield/fixtures/$fixture.json" $flags \
            --out "$out/$name" >/dev/null 2>"$out/$name.stderr"
        rc=$?
        mkdir -p "$out/$name"
        echo "$rc" >"$out/$name/exit_code"
        echo "$name: exit $rc"
    done <<'FIXTURES'
half_disc half_disc --order 3 --target-h 0.35 --split 4 --formats svg,vtk
nautilus nautilus --order 3 --target-h 0.5 --split 2
nautilus_split3 nautilus --order 3 --target-h 0.5 --split 3
polygon_III polygon_III --order 3 --target-h 0.35 --split 2 --formats msh
polygon_III_h02 polygon_III --order 3 --target-h 0.2 --split 2
geometry_I geometry_I --order 3 --target-h 0.35 --split 2 --formats msh
holed_nautilus holed_nautilus --target-h 0.35
naca_IV naca_IV --target-h 0.35
naca_IV_long_trace naca_IV --order 3 --target-h 0.5 --split 2
naca_IV_crossings naca_IV --target-h 0.35 --penalty 100
half_disc_default_h half_disc
nautilus_fine_run nautilus --order 4 --target-h 0.06 --split 2
nautilus_formats nautilus --order 3 --target-h 0.5 --split 2 --formats svg,vtk,msh
holed_nautilus_formats holed_nautilus --target-h 0.35 --formats svg,vtk
FIXTURES
}

run_staged() {            # <source tree> <output dir>
    local tree=$1 out=$2 name fixture stages flags dir stage rc
    while read -r name fixture stages flags; do
        dir=$out/$name
        mkdir -p "$dir"
        for stage in ${stages//,/ }; do
            PYTHONPATH="$tree/src" python3 -m quadfield.cli "$stage" \
                "$tree/src/quadfield/fixtures/$fixture.json" $flags \
                --out "$dir" >/dev/null 2>"$out/$name.stderr"
            rc=$?
            echo "$rc" >"$dir/exit_code_$stage"
            echo "$name $stage: exit $rc"
        done
    done <<'STAGED'
polygon_III_staged polygon_III mesh,solve,topology,trace,cut,split --order 3 --target-h 0.35 --split 2 --formats msh
nautilus_staged nautilus mesh,solve,topology,trace,cut,split --order 3 --target-h 0.5 --split 2
polygon_III_fine polygon_III mesh,solve --order 4 --target-h 0.12
geometry_I_fine geometry_I mesh,solve --order 4 --target-h 0.12
geometry_I_fine_dg geometry_I mesh,solve --order 4 --target-h 0.12 --scheme dg
polygon_III_fine_p2 polygon_III mesh,solve --order 2 --target-h 0.12
geometry_I_fine_p2 geometry_I mesh,solve --order 2 --target-h 0.12
polygon_III_fine_p6 polygon_III mesh,solve --order 6 --target-h 0.12
geometry_I_fine_p6 geometry_I mesh,solve --order 6 --target-h 0.12
half_disc_fine half_disc mesh --order 4 --target-h 0.12
nautilus_fine nautilus mesh --order 4 --target-h 0.12
holed_nautilus_fine holed_nautilus mesh --order 4 --target-h 0.12
naca_IV_fine naca_IV mesh --order 4 --target-h 0.12
STAGED
}

rm -rf "$work/out-ref" "$work/out-tree"
mkdir -p "$work/out-ref" "$work/out-tree"
echo "== $ref"
run_fixtures "$work/ref" "$work/out-ref"
run_staged "$work/ref" "$work/out-ref"
echo "== working tree"
run_fixtures "$repo" "$work/out-tree"
run_staged "$repo" "$work/out-tree"
staged_differ=0
for side in out-ref out-tree; do
    for run in polygon_III nautilus; do
        for file in "$work/$side/${run}_staged"/*; do
            name=${file##*/}
            case $name in exit_code_*) continue ;; esac
            cmp -s "$file" "$work/$side/$run/$name" || {
                echo "$side: ${run}_staged/$name differs from $run/$name" >&2
                staged_differ=1
            }
        done
    done
done
# stderr may name the output directory; compare the artifacts only
rm -f "$work"/out-ref/*.stderr "$work"/out-tree/*.stderr
if diff -r "$work/out-ref" "$work/out-tree" && [ $staged_differ -eq 0 ]; then
    echo "byte-identical"
else
    echo "outputs differ" >&2
    exit 1
fi
