#!/usr/bin/env bash
# Alternating parent/change pairs of one system-benchmark workload, the
# measurement every PR that claims a gain has to show (BENCHMARK.json's
# rule: the change wins at least nine of ten pairs and the medians are
# further apart than the base's own quartiles).
#
#   scripts/benchpairs.sh <base-rev> <workload> [pairs=10]
#
# The base revision is extracted with `git archive` under .bench_build/
# (removed again on exit); the change is the working tree. Both sides run
# with the change's trust bundle (.bench_build/trust-*, made by one quick
# run of the change if it has none), so key material does not differ
# between them. Each pair runs `bash benchmarks/run.sh -workload W -seed S`
# once on either side with a seed no other pair uses, the side that goes
# first alternating, and the one-line JSON ending each run is parsed; a
# run that is not clean (non-zero exit, incorrect, or a failed operation)
# has its failure lines printed from its kept log. The table printed at
# the end gives, per end-to-end metric, both medians, both quartile pairs
# and how many pairs the change won, then the unclean runs per side.
# Nothing under benchmarks/ is written by this script.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
	echo "usage: $0 <base-rev> <workload> [pairs=10]" >&2
	exit 2
fi
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
base_sha="$(git rev-parse --verify "$1^{commit}")"
workload="$2"
pairs="${3:-10}"

base_dir="$root/.bench_build/base-${base_sha:0:12}"
out_dir="$root/.bench_build/pairs-$workload-$(date +%Y%m%dT%H%M%S)"
mkdir -p "$out_dir" "$base_dir/.bench_build"
trap 'rm -rf "$base_dir"' EXIT
git archive "$base_sha" | tar -x -C "$base_dir"
if ! compgen -G "$root/.bench_build/trust-*" >/dev/null; then
	echo "making the change's trust bundle (one quick run)" >&2
	bash "$root/benchmarks/run.sh" -workload "$workload" -quick >"$out_dir/trust.log" 2>&1
fi
cp -r "$root"/.bench_build/trust-* "$base_dir/.bench_build/"
declare -A unclean=([base]=0 [change]=0)

# run <side> <dir> <pair> <seed>: one benchmark run; appends
# "<pair> <metric> <value>" lines to the side's sample file.
run() {
	local side="$1" dir="$2" pair="$3" seed="$4"
	local log="$out_dir/$side-$pair.log" status=0
	bash "$dir/benchmarks/run.sh" -workload "$workload" -seed "$seed" >"$log" 2>&1 || status=$?
	local json
	json="$(tail -n 1 "$log")"
	case "$status $json" in
	'0 '*'"correct":true'*'"failed":0,'*) ;;
	*)
		unclean[$side]=$((unclean[$side] + 1))
		echo "  $side pair $pair (seed $seed): run not clean, exit $status; failure lines of $log:" >&2
		grep -E 'FAILED|correct false|panic|[Ee]rror|exit status' "$log" | head -n 20 | sed 's/^/    /' >&2 || true
		;;
	esac
	grep -oE '"[a-z0-9_]+":\{"value":[-+0-9.eE]+' <<<"$json" |
		sed -E 's/^"([a-z0-9_]+)":\{"value":(.*)$/'"$pair"' \1 \2/' >>"$out_dir/$side.samples"
}

seed0=$(($(date +%s) % 100000 * 100))
for pair in $(seq 1 "$pairs"); do
	seed=$((seed0 + pair))
	if [ $((pair % 2)) -eq 1 ]; then order="base change"; else order="change base"; fi
	echo "pair $pair/$pairs  seed $seed  order: $order" >&2
	for side in $order; do
		if [ "$side" = base ]; then run base "$base_dir" "$pair" "$seed"; else run change "$root" "$pair" "$seed"; fi
	done
done

# Which direction is better comes from BENCHMARK.json's end_to_end list.
awk '
function quantile(a, n, q,    pos, lo, frac) {
	pos = (n - 1) * q + 1; lo = int(pos); frac = pos - lo
	return lo >= n ? a[n] : a[lo] + frac * (a[lo + 1] - a[lo])
}
function summary(side, m,    n, i, v, a, tmp, j) {
	n = 0
	for (i = 1; i <= pairs; i++) if ((side, i, m) in val) a[++n] = val[side, i, m]
	for (i = 2; i <= n; i++) { v = a[i]; for (j = i - 1; j >= 1 && a[j] > v; j--) a[j + 1] = a[j]; a[j + 1] = v }
	if (n == 0) return sprintf("%32s", "no samples")
	return sprintf("%10.3f [%9.3f, %9.3f]", quantile(a, n, 0.5), quantile(a, n, 0.25), quantile(a, n, 0.75))
}
FILENAME == bench {
	if ($0 ~ /"end_to_end"/) e2e = 1
	if ($0 ~ /"per_layer"/) e2e = 0
	if (e2e && match($0, /"name": *"[^"]+"/)) { name = $0; sub(/.*"name": *"/, "", name); sub(/".*/, "", name); order[++nm] = name }
	if (e2e && $0 ~ /"better": *"higher"/) higher[name] = 1
	next
}
{ side = FILENAME == basef ? "base" : "change"; val[side, $1, $2] = $3; if ($1 > pairs) pairs = $1 }
END {
	printf "%-18s %32s   %32s   %s\n", "metric", "base median [q1, q3]", "change median [q1, q3]", "change wins/ties/pairs"
	for (k = 1; k <= nm; k++) {
		m = order[k]; wins = ties = both = 0
		for (i = 1; i <= pairs; i++) {
			if (!(("base", i, m) in val) || !(("change", i, m) in val)) continue
			both++; b = val["base", i, m]; c = val["change", i, m]
			if (b == c) ties++
			else if ((m in higher) ? c > b : c < b) wins++
		}
		if (both) printf "%-18s %s   %s   %d/%d/%d\n", m, summary("base", m), summary("change", m), wins, ties, both
	}
}' bench="$root/BENCHMARK.json" basef="$out_dir/base.samples" \
	"$root/BENCHMARK.json" "$out_dir/base.samples" "$out_dir/change.samples"
echo "unclean runs: base ${unclean[base]}/$pairs, change ${unclean[change]}/$pairs"
echo "logs and samples: $out_dir" >&2
