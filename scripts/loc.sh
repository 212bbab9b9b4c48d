#!/bin/sh
# Lines of Go per package, non-test and test (`wc -l` of the .go files in each
# `go list` package directory, whatever their build tags), and the two totals
# ROADMAP's "Size:" line and the CHANGES.md ledgers quote: outside bench/ and
# inside it.
#
#   scripts/loc.sh                (make loc)
set -eu

cd "$(dirname "$0")/.."
mod=$(go list -m)
go list -f '{{.ImportPath}} {{.Dir}}' ./... | while read -r pkg dir; do
	code=0
	tests=0
	for f in "$dir"/*.go; do
		[ -f "$f" ] || continue
		n=$(wc -l <"$f")
		case $f in
		*_test.go) tests=$((tests + n)) ;;
		*) code=$((code + n)) ;;
		esac
	done
	echo "$pkg $code $tests"
done | awk -v mod="$mod" '
	BEGIN { printf "%-40s %9s %9s\n", "package", "non-test", "test" }
	{
		printf "%-40s %9d %9d\n", $1, $2, $3
		side = ($1 == mod "/bench" || index($1, mod "/bench/") == 1) ? "in" : "out"
		code[side] += $2
		tests[side] += $3
	}
	END {
		printf "%-40s %9d %9d\n", "total outside bench/", code["out"], tests["out"]
		printf "%-40s %9d %9d\n", "total inside bench/", code["in"], tests["in"]
	}'
