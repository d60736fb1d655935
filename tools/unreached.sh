#!/usr/bin/env bash
# Reachability check: lists the declared non-test functions of the root
# module that no binary built from cmd/, examples/, tools/*.go or bench/
# links, and compares that list with tools/unreached.allow, which gives one
# "pkg.Func<TAB>reason" line per function kept on purpose.
#
# Fails when a function is unreached but not allowlisted, when the
# allowlist names a function that is now linked or no longer exists, and
# on an allowlist line without a reason.
# Methods print as pkg.Type.Method for both receiver kinds. Inlining is
# off so a function inlined into every caller still counts as linked.
#
# Run from anywhere: bash tools/unreached.sh
set -euo pipefail
cd "$(dirname "$0")/.."

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

for d in cmd/* examples/*; do go build -gcflags=all=-l -o "$out/$(basename "$d")" "./$d"; done
for f in tools/*.go; do go build -gcflags=all=-l -o "$out/$(basename "$f" .go)" "$f"; done
go -C bench build -gcflags=all=-l -o "$out/bench" .
for b in "$out"/*; do go tool nm "$b"; done | awk '$2=="T"||$2=="t"{print $3}' |
  sed -E 's/\[[^]]*\]//g; s/\(\*([A-Za-z0-9_]+)\)/\1/' | sort -u > "$out/linked"
git ls-files '*.go' | grep -v '_test.go$' | grep -v '^bench/' | while read -r f; do
  pkg=deepnote/$(dirname "$f"); [ "$pkg" = deepnote/. ] && pkg=deepnote
  grep -q '^package main' "$f" && pkg=main
  grep -oE '^func (\(([a-z]+ )?\*?[A-Za-z0-9_]+(\[[^]]*\])?\) )?[A-Za-z0-9_]+' "$f" |
    sed -E "s/^func \(([a-z]+ )?\*?([A-Za-z0-9_]+)(\[[^]]*\])?\) /\2./; s/^func //; s#^#$pkg.#"
done | grep -vE '\.(init|main)$' | sort -u | comm -23 - "$out/linked" > "$out/unreached"

grep -vE '^(#|$)' tools/unreached.allow > "$out/allow" || true
cut -f1 "$out/allow" | sort > "$out/allowed"
status=0
bare=$(awk -F'\t' '$2 == "" {print "  " $1}' "$out/allow")
if [ -n "$bare" ]; then
  echo "tools/unreached.allow lines without a reason:"; echo "$bare"; status=1
fi
new=$(comm -23 "$out/unreached" "$out/allowed" | sed 's/^/  /')
if [ -n "$new" ]; then
  echo "No binary links these functions; delete them or allowlist them with a reason:"; echo "$new"; status=1
fi
stale=$(comm -13 "$out/unreached" "$out/allowed" | sed 's/^/  /')
if [ -n "$stale" ]; then
  echo "tools/unreached.allow names functions that are linked, gone or listed twice:"; echo "$stale"; status=1
fi
if [ $status = 0 ]; then echo "unreached: $(wc -l < "$out/unreached") functions, all allowlisted"; fi
exit $status
