#!/bin/sh
# examples_smoke.sh — runs every examples/* main and `dractl demo` on each
# demo workflow, and fails on a non-zero exit or on a missing line: each
# run must print the lines that say its instances completed with the
# expected signature and CER counts.
#
# Run from the repository root: ./scripts/examples_smoke.sh
set -eu

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

# expect NAME LINE... — each LINE must occur verbatim in $WORK/NAME.out.
expect() {
	name="$1"
	shift
	for line in "$@"; do
		if ! grep -qF -- "$line" "$WORK/$name.out"; then
			echo "examples: $name: missing line: $line" >&2
			cat "$WORK/$name.out" >&2
			exit 1
		fi
	done
	echo "examples: $name ok"
}

# run NAME CMD... — runs CMD with its output in $WORK/NAME.out.
run() {
	name="$1"
	shift
	if ! "$@" >"$WORK/$name.out" 2>&1; then
		echo "examples: $name exited non-zero" >&2
		cat "$WORK/$name.out" >&2
		exit 1
	fi
}

go build -o "$WORK/bin/" ./examples/... ./cmd/dractl

for dir in examples/*/; do
	example="$(basename "$dir")"
	run "$example" "$WORK/bin/$example"
	case "$example" in
	cloudcluster)
		expect "$example" "completed 8 instances" "byState=map[completed:8]" \
			"totalExecutions=55" "alteration detected by signature verification" ;;
	expenseflow)
		expect "$example" "signatures checked: 4, completed: true" \
			"approval executed and signed by mgr-south@corp" "forged copy audit verdict: verified=false" ;;
	loanapproval)
		expect "$example" "basic model refused (as expected)" \
			"X=1500: routed by the TFC to A4" "X=800: routed by the TFC to A5" \
			"TFC forwarded 4 documents for this instance" ;;
	purchaseorder)
		expect "$example" "all 11 signatures verify; document is" "after 10 activity executions" \
			"state=completed steps=10" ;;
	quickstart)
		expect "$example" "process completed: true" "all 4 signatures valid" \
			"tampering with emma's stored result is detected" ;;
	*)
		echo "examples: $example: no expected lines; add them to $0" >&2
		exit 1 ;;
	esac
done

# workflow:CERs:signatures
for wf in fig9a:10:11 fig9b:20:21 fig4:8:9; do
	workflow="${wf%%:*}"
	counts="${wf#*:}"
	run "demo-$workflow" "$WORK/bin/dractl" demo -workflow "$workflow" -bits 1024
	expect "demo-$workflow" "): ${counts%%:*} CER(s), " "all ${counts#*:} signatures verify"
done
