#!/bin/sh
# End-to-end test of the tpp command-line tool.
#
# Runs one batch script (a duplicate request and an `edit` line) through
# both `tpp batch --stream` and `tpp serve --stdio`, each over a fresh
# warm store, and checks that
#   * every request's name, solver, motif, target count, deletions and
#     similarity agree between the two front ends;
#   * each footer's `snapshot writes` equals the number of index snapshots
#     `tpp store ls` lists (in-place repair write-backs included);
#   * a request that samples its targets after the edit gets the plan a
#     cold `tpp batch` over the `tpp edit`-written edited graph gives it,
#     from both front ends;
#   * a second `serve` over the same store, same targets and motifs but a
#     different budget (so every plan misses the plan log), warm-loads
#     indexes: nonzero `snapshot hits`;
#   * a script with one request that fails at run time makes `tpp batch`
#     exit 1 with the `failures: 1/N (...)` footer.
#
# Usage: cli_e2e_test.sh PATH/TO/tpp

set -u
TPP=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
WORK=$(mktemp -d "${TMPDIR:-/tmp}/tpp_cli_e2e.XXXXXX") || exit 1
trap 'rm -rf "$WORK"' EXIT
cd "$WORK" || exit 1

failures=0
fail() {
  echo "FAIL: $*" >&2
  failures=$((failures + 1))
}

# A 40-node ring with chords: every target sits in triangles and
# rectangles.
awk 'BEGIN {
  n = 40
  for (i = 0; i < n; i++) {
    print i, (i + 1) % n
    print i, (i + 2) % n
    if (i % 3 == 0) print i, (i + 7) % n
  }
}' > g.edges

# c duplicates a; the edit touches no target, so both built groups are
# repaired in place and written back under the new fingerprint; e names
# a's group again after the edit; f samples its targets from the edited
# graph.
cat > script.txt <<'EOF'
name=a algorithm=sgb motif=Triangle links=0-1;10-11 budget=3
name=b algorithm=ct-tbd motif=Rectangle links=3-4;20-21 budget=4
name=c algorithm=sgb motif=Triangle links=0-1;10-11 budget=3
edit remove=30-31 insert=5-25
name=d algorithm=wt-tbd motif=Triangle links=15-16 budget=2
name=e algorithm=sgb motif=Triangle links=0-1;10-11 budget=3
name=f algorithm=sgb motif=Triangle sample=6 seed=9 budget=3
EOF

mkdir plans cold_plans
"$TPP" batch --graph=g.edges --requests=script.txt --stream --store=D1 \
  --plan-dir=plans > batch.out 2> batch.err || fail "tpp batch exited $?"
"$TPP" serve --graph=g.edges --stdio --store=D2 < script.txt \
  > serve.out 2> serve.err || fail "tpp serve exited $?"

# name, status, solver=, motif=, targets=, deleted=, similarity= of every
# answered request (edit lines carry no solver= field).
fields() {
  awk '$2 == "ok" && $3 ~ /^solver=/ { print $1, $2, $3, $4, $5, $6, $7 }' \
    "$1"
}
count_lines() { awk 'END { print NR }' "$1"; }

fields batch.out > batch.fields
fields serve.out > serve.fields
[ "$(count_lines batch.fields)" -eq 6 ] ||
  fail "tpp batch answered $(count_lines batch.fields) of 6 requests"
if ! cmp -s batch.fields serve.fields; then
  fail "tpp batch and tpp serve disagree per request"
  diff batch.fields serve.fields >&2
fi

# f against cold runs over the edited edge file: the same plan file from
# `tpp batch`, the same plan hash from `tpp serve`.
"$TPP" edit --graph=g.edges --remove=30-31 --insert=5-25 \
  --out=edited.edges > edit.out 2>&1 || fail "tpp edit exited $?"
grep '^name=f ' script.txt > sampled.txt
"$TPP" batch --graph=edited.edges --requests=sampled.txt \
  --stream --plan-dir=cold_plans > cold.out 2>&1 ||
  fail "cold tpp batch exited $?"
"$TPP" serve --graph=edited.edges --stdio < sampled.txt \
  > cold_serve.out 2> cold_serve.err || fail "cold tpp serve exited $?"
fields cold.out > cold.fields
[ "$(count_lines cold.fields)" -eq 1 ] || fail "cold tpp batch did not answer f"
for front in batch serve; do
  awk '$1 == "f"' "$front.fields" | cmp -s - cold.fields ||
    fail "tpp $front answers f unlike a cold batch over the edited graph"
done
cmp -s plans/f.plan cold_plans/f.plan ||
  fail "tpp batch's plan for f differs from a cold batch's"
plan_hash() { sed -n 's/^f ok .* plan_hash=\([0-9a-f]*\).*/\1/p' "$1"; }
[ -n "$(plan_hash serve.out)" ] &&
  [ "$(plan_hash serve.out)" = "$(plan_hash cold_serve.out)" ] ||
  fail "tpp serve's plan hash for f differs from a cold serve's"

# The store footer's snapshot hits (field 1) or snapshot writes (field 2).
footer_count() {  # footer_count FILE 1|2
  sed -n "s/^warm store .*: \([0-9]*\) snapshot hits, \([0-9]*\) snapshot writes,.*/\\$2/p" "$1"
}
check_writes() {  # check_writes OUTPUT STORE_DIR
  written=$(footer_count "$1" 2)
  "$TPP" store ls --store="$2" > "$2.ls" 2>&1 || fail "tpp store ls $2 failed"
  listed=$(awk '$2 == "index"' "$2.ls" | awk 'END { print NR }')
  [ -n "$written" ] && [ "$written" -eq "$listed" ] ||
    fail "$1 reports ${written:-no} snapshot writes; $2 lists $listed index snapshots"
}
check_writes batch.out D1
check_writes serve.out D2

sed 's/budget=[0-9]*/budget=1/' script.txt > rebudget.txt
"$TPP" serve --graph=g.edges --stdio --store=D2 < rebudget.txt \
  > reserve.out 2> reserve.err || fail "second tpp serve exited $?"
hits=$(footer_count reserve.out 1)
[ -n "$hits" ] && [ "$hits" -gt 0 ] ||
  fail "second tpp serve reports ${hits:-no} snapshot hits over a warm store"

cat > invalid.txt <<'EOF'
name=a algorithm=sgb motif=Triangle links=0-1 budget=2
name=bad algorithm=sgb sample=100000 budget=2
name=z algorithm=sgb motif=Triangle links=10-11 budget=2
EOF
"$TPP" batch --graph=g.edges --requests=invalid.txt > invalid.out 2>&1
rc=$?
[ "$rc" -eq 1 ] || fail "tpp batch with one failing request exited $rc, want 1"
grep -q '^failures: 1/3 (InvalidArgument=1)$' invalid.out ||
  fail "tpp batch printed no 'failures: 1/3 (...)' footer"

if [ "$failures" -ne 0 ]; then
  for f in batch.out serve.out cold.out cold_serve.out reserve.out \
    invalid.out; do
    echo "--- $f" >&2
    cat "$f" >&2
  done
  exit 1
fi
echo "cli_e2e_test: all checks passed"
