#!/usr/bin/env bash
# Byte-identity sweep of the ipcp CLI: builds ipcp and ipcp-tables at a
# base revision and at the working tree, runs both over the 13 suite
# programs (dumped with ipcp-tables -dump) and internal/core/testdata/*.f
# under every jump-function kind, a grid of analysis modes and
# -parallel 1 and 4, and compares stdout, stderr and exit code. -transform,
# -jumps and -stats are separate invocations, because -transform returns
# before the other two print. Start it from the repository root:
#
#   bash scripts/cli-sweep.sh <base-rev>     (or: make cli-sweep BASE=<rev>)
#
# It prints the number of runs and of differences, and exits 1 on any
# difference. A change meant to alter outputs differs by design, so this
# is a tool, not a CI gate.
set -euo pipefail

base=${1:?usage: cli-sweep.sh <base-rev>}
root=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/src" "$work/progs" "$work/out" "$work/bin/base" "$work/bin/head"

# The base tree is extracted with git archive: a plain temporary copy.
git -C "$root" archive "$base" | tar -x -C "$work/src"
for side in base head; do
	dir=$root
	[ "$side" = base ] && dir=$work/src
	go -C "$dir" build -o "$work/bin/$side/ipcp" ./cmd/ipcp
	go -C "$dir" build -o "$work/bin/$side/ipcp-tables" ./cmd/ipcp-tables
done

# Suite program names, from the list ipcp-tables prints for an unknown one.
names=$("$work/bin/head/ipcp-tables" -dump '?' 2>&1 >/dev/null | sed -n 's/.*(have \[\(.*\)\]).*/\1/p' || true)
[ -n "$names" ] || { echo "cli-sweep: cannot list suite programs" >&2; exit 1; }
for n in $names; do
	"$work/bin/head/ipcp-tables" -dump "$n" >"$work/progs/$n.f"
done
cp "$root"/internal/core/testdata/*.f "$work/progs/"

variants=(
	''
	'-maxexpr 3'
	'-complete'
	'-gated'
	'-ret=false -maxexpr 3'
	'-mod=false'
	'-domain interval'
	'-domain cond-const -maxexpr 5'
	'-solver binding -maxexpr 4'
	'-fullsubst'
	'-complete -gated'
)

# run SIDE ARGS... leaves SIDE's stdout, stderr and exit code in $work/out.
run() {
	local side=$1
	shift
	local code=0
	"$work/bin/$side/ipcp" "$@" >"$work/out/$side.out" 2>"$work/out/$side.err" || code=$?
	echo "$code" >"$work/out/$side.code"
}

runs=0
diffs=0
for prog in "$work"/progs/*.f; do
	for jf in literal intra passthrough polynomial; do
		for v in "${variants[@]}"; do
			for p in 1 4; do
				for mode in -transform -jumps -stats; do
					# $v is a flag list: split on spaces on purpose.
					# shellcheck disable=SC2086
					args=(-jf "$jf" $v -parallel "$p" "$mode" "$prog")
					run base "${args[@]}"
					run head "${args[@]}"
					runs=$((runs + 1))
					for f in out err code; do
						if ! cmp -s "$work/out/base.$f" "$work/out/head.$f"; then
							diffs=$((diffs + 1))
							echo "differs ($f): ipcp ${args[*]/#$work\/progs\//}"
							break
						fi
					done
				done
			done
		done
	done
done
echo "cli-sweep: $runs runs against $base, $diffs differences"
[ "$diffs" -eq 0 ]
