#!/usr/bin/env bash
# Prints the number ROADMAP says must fall: non-blank, non-comment Go
# lines under cmd/, internal/ and examples/, leaving out _test.go files
# and testdata/ (and, by not descending into it, benchmarks/).
set -euo pipefail
cd "$(dirname "$0")/.."
find cmd internal examples -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -print0 |
	xargs -0 cat | grep -v '^\s*//' | grep -vc '^\s*$'
