#!/usr/bin/env bash
# Which `pub` items of crates/*/src does anything outside their crate name?
#
# For every `pub` fn, struct, enum, trait, type alias, const, static and
# module in crates/*/src (test modules excluded), list the files outside
# the item's crate that name it: the other crates, src/, tests/,
# examples/, benchmark/, and crates/bench/src/bin/ (the repro binaries
# sit outside the aurora-bench lib). A module counts as named when
# `name::` appears. Comments do not count; intra-doc links do.
#
# The count is by name, so it is crude in one direction only: an item
# whose name another crate also uses for something else looks used. An
# item that nothing outside names is either demoted (`pub(crate)`, or a
# private module) or listed in scripts/pub_kept.txt with the reason it
# stays `pub`.
#
# Usage:
#   scripts/pub_audit.sh            every pub item with its outside users
#   scripts/pub_audit.sh --unused   only the items nothing outside names
#   scripts/pub_audit.sh --check    exit 1 when an unused item is missing
#                                   from pub_kept.txt, or a kept line no
#                                   longer names an unused item
set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-all}"
case "$mode" in
    all | --unused | --check) ;;
    *)
        echo "usage: $0 [--unused | --check]" >&2
        exit 2
        ;;
esac
kept_file=scripts/pub_kept.txt

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# Every file that may name an item, copied without its comments. Doc
# comments keep only their intra-doc link targets.
find crates src tests examples benchmark/src benchmark/tests \
    -name '*.rs' -not -path '*/target/*' 2>/dev/null | sort >"$tmp/files"
while read -r f; do
    mkdir -p "$tmp/stripped/$(dirname "$f")"
    awk '
        /^[ \t]*\/\/[\/!]/ {
            line = $0; out = ""
            while (match(line, /\[`?[A-Za-z0-9_:]+(\(\))?!?`?\](\([A-Za-z0-9_:]+\))?/)) {
                out = out " " substr(line, RSTART, RLENGTH)
                line = substr(line, RSTART + RLENGTH)
            }
            print out
            next
        }
        { sub(/\/\/.*$/, ""); print }
    ' "$f" >"$tmp/stripped/$f"
done <"$tmp/files"

# The pub items: crate, file:line, kind, key (crate::Owner::name), name.
# A file's items end at its `#[cfg(test)] mod`; any other `#[cfg(test)]`
# item is skipped.
for dir in crates/*/; do
    crate="$(basename "$dir")"
    find "$dir/src" -name '*.rs' -not -path '*/src/bin/*' | sort | while read -r f; do
        awk -v crate="$crate" -v file="${f#./}" '
            function ident(s) { sub(/^r#/, "", s); match(s, /^[A-Za-z_][A-Za-z0-9_]*/); return substr(s, RSTART, RLENGTH) }
            /^[ \t]*#\[cfg\(test\)\]/ { skip_next = 1; next }
            /^[ \t]*#\[/ { next }
            skip_next && /^[ \t]*(pub(\([a-z]+\))?[ \t]+)?mod[ \t]/ { exit }
            /^impl/ {
                s = $0; sub(/^impl[ \t]*/, "", s)
                if (substr(s, 1, 1) == "<") {
                    depth = 0
                    for (i = 1; i <= length(s); i++) {
                        c = substr(s, i, 1)
                        if (c == "<") depth++
                        else if (c == ">" && --depth == 0) break
                    }
                    s = substr(s, i + 1)
                }
                if (match(s, / for /)) s = substr(s, RSTART + 5)
                sub(/^[ \t]+/, "", s)
                owner = ident(s)
            }
            /^}/ { owner = "" }
            {
                if (skip_next) { skip_next = 0; next }
                if ($0 !~ /^[ \t]*pub[ \t]/) next
                n = split($0, t, /[ \t]+/)
                i = 1
                while (t[i] != "pub") i++
                i++
                while (t[i] == "async" || t[i] == "unsafe" || t[i] == "extern" || t[i] ~ /^"/ \
                       || (t[i] == "const" && (t[i + 1] == "fn" || t[i + 1] == "unsafe"))) i++
                kind = t[i]
                if (kind !~ /^(fn|struct|enum|trait|type|const|static|mod|union)$/) next
                name = ident(t[i + 1])
                key = crate "::" ((owner != "" && $0 ~ /^[ \t]/) ? owner "::" : "") name
                printf "%s\t%s:%d\t%s\t%s\t%s\n", crate, file, NR, kind, key, name
            }
        ' "$f"
    done
done >"$tmp/items"

# For each item, the outside files that name it.
: >"$tmp/report"
while IFS=$'\t' read -r crate loc kind key name; do
    own="crates/$crate/src/"
    if [ "$kind" = mod ]; then
        pat="\\b$name::"
    else
        pat="\\b$name\\b"
    fi
    users="$(cd "$tmp/stripped" && grep -rnE "$pat" . 2>/dev/null |
        sed 's|^\./||' |
        grep -vE "^$own" |
        grep -vE "^[^:]*:[0-9]+:.*\\b(fn|struct|enum|trait|type|const|static|union|mod)[ \t]+$name\\b" |
        cut -d: -f1 | sort -u | tr '\n' ' ' || true)"
    if [ "$crate" = bench ]; then
        # The repro binaries are outside the lib but inside crates/bench/src.
        users="$users$(cd "$tmp/stripped" && grep -rlE "$pat" crates/bench/src/bin 2>/dev/null | sort -u | tr '\n' ' ' || true)"
    fi
    printf '%s\t%s\t%s\t%s\n' "$key" "$kind" "$loc" "${users% }" >>"$tmp/report"
done <"$tmp/items"

case "$mode" in
    all)
        awk -F'\t' '{ printf "%-48s %-6s %-44s %s\n", $1, $2, $3, ($4 == "" ? "-" : $4) }' "$tmp/report"
        ;;
    --unused)
        awk -F'\t' '$4 == "" { printf "%-48s %-6s %s\n", $1, $2, $3 }' "$tmp/report"
        ;;
    --check)
        awk -F'\t' '$4 == "" { print $1 }' "$tmp/report" | sort -u >"$tmp/unused"
        if [ -f "$kept_file" ]; then
            grep -vE '^[[:space:]]*(#|$)' "$kept_file" | awk '{ print $1 }' | sort -u >"$tmp/kept"
        else
            : >"$tmp/kept"
        fi
        missing="$(comm -23 "$tmp/unused" "$tmp/kept")"
        stale="$(comm -13 "$tmp/unused" "$tmp/kept")"
        status=0
        if [ -n "$missing" ]; then
            echo "pub items nothing outside their crate names (demote them, or list them in $kept_file with a reason):" >&2
            echo "$missing" | while read -r key; do
                awk -F'\t' -v k="$key" '$1 == k { printf "  %-48s %s\n", $1, $3 }' "$tmp/report" >&2
            done
            status=1
        fi
        if [ -n "$stale" ]; then
            echo "lines of $kept_file that name no unused pub item (remove them):" >&2
            echo "$stale" | sed 's/^/  /' >&2
            status=1
        fi
        [ "$status" -eq 0 ] && echo "pub audit: $(wc -l <"$tmp/kept") kept items, none missing"
        exit "$status"
        ;;
esac
