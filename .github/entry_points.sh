#!/usr/bin/env bash
# Through main(), which the tests bypass: each bad input or cap
# breach must exit 1 with exactly one stderr line, each TM run, the
# CHSH classical value and the moments of a contraction at the norm
# tolerance must exit 0 with the expected result, and each search,
# moment cloud and density run twice with the same argv must exit 0
# and repeat its --json output (without runtime_seconds) and its
# written file byte for byte, as must the seeded epr run.  A spec
# rewritten by a shorter one must equal a fresh write, and a cloud
# written to /dev/null must exit 0, while a search certificate
# aimed at /dev/null, which cannot be read back, or into a missing
# directory is refused, as is a cloud into a missing directory.  A
# game or strategy whose sums overflow is refused on one line too,
# as are an empty output path, a machine with an unknown move and
# one that lists a state twice, and a game file nested 1,100 lists
# deep or holding a 400-digit pi entry.  A game with a 3,001-digit
# wins index and a machine with a 5,000-character state name are
# refused on a line of at most 200 bytes.  The looper's stationary
# self-loop counts a budget of 10^12 steps without stepping them, and
# its trace over that budget is refused under the trace cap.  An epr
# run past its trial cap and a density run past its term cap are
# refused before anything is drawn, and a traced looper run of 10^5
# steps streams --json that parses with one trace line per step.  The
# 400-row cloud's CSV must equal, byte for byte, what the plain repr
# loop writes for the same cloud, whichever orjson is installed, and a
# result sent to /dev/full must exit 1 with one stderr line.  A cloud
# at (n, d, p) = (2, 4, 5), whose longest words the moment engine
# traces in more than one block of prefixes after two middle lengths,
# runs twice too.  The script's scratch directory is removed on exit.
#
# Run from any directory: bash .github/entry_points.sh
set -e
cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
echo '{"dim": 1.5, "matrices": [[0.5, 0.0]]}' > "$tmp/mats.json"
echo '{"k": "x", "n": 2, "pi": [[1.0]], "wins": []}' > "$tmp/game.json"
refuses() {
  code=0
  PYTHONPATH=src python -m nlv.cli "$@" 2> "$tmp/err" || code=$?
  cat "$tmp/err"
  [ "$code" -eq 1 ] && [ "$(wc -l < "$tmp/err")" -eq 1 ]
}
refuses moments map --n 1 --d 1 --matrices "$tmp/mats.json"
refuses quantum-lb --game src/nlv/data/chsh.json --dim 400 --restarts 1 --seed 0 \
  --spec-out "$tmp/spec.json"
refuses classical --game "$tmp/game.json"
refuses classical --game src/nlv/data/chsh.json --cap 3
refuses moments cloud --n 1 --d 19 --p 64 --count 1 --seed 0 --out "$tmp/c.csv"
PYTHONPATH=src python -c "from nlv.game import random_game, save_game; print(save_game(random_game(100, 2, 0)), end='')" > "$tmp/wide.json"
refuses sync-lb --game "$tmp/wide.json" --dim 512 --restarts 1 --seed 0
refuses quantum-lb --game src/nlv/data/chsh.json --dim 2 --restarts 1 --seed 0 \
  --spec-out /dev/null
refuses sync-lb --game src/nlv/data/chsh.json --dim 2 --restarts 1 --seed 0 \
  --family-out /dev/null
refuses quantum-lb --game src/nlv/data/chsh.json --dim 2 --restarts 1 --seed 0 \
  --spec-out "$tmp/no-such-dir/spec.json"
refuses sync-lb --game src/nlv/data/chsh.json --dim 2 --restarts 1 --seed 0 \
  --family-out "$tmp/no-such-dir/family.json"
refuses moments cloud --n 1 --d 2 --p 2 --count 5 --seed 0 --out "$tmp/no-such-dir/c.csv"
echo '{"k": 2, "n": 2, "pi": [[1e308, 1e308], [-1e308, -1e308]], "wins": [[1, 1, 1, 1]]}' \
  > "$tmp/huge.json"
refuses classical --game "$tmp/huge.json"
echo '{"k": 2, "n": 2, "p": [[[[1e308, 1e308], [0, 0]], [[0.5, 0], [0, 0.5]]],
  [[[0.5, 0], [0, 0.5]], [[0.5, 0], [0, 0.5]]]]}' > "$tmp/huge-strategy.json"
refuses value --game src/nlv/data/chsh.json --strategy "$tmp/huge-strategy.json"
refuses sync-lb --game src/nlv/data/chsh.json --dim 2 --restarts 1 --seed 0 \
  --family-out ''
python -c "import json; m = json.load(open('src/nlv/data/copier.json')); m['transitions'][0][7] = 'U'; print(json.dumps(m))" > "$tmp/bad-move.json"
refuses tm run --machine "$tmp/bad-move.json" --budget 10
python -c "import json; m = json.load(open('src/nlv/data/looper.json')); m['states'].append('spin'); print(json.dumps(m))" > "$tmp/state-twice.json"
refuses tm run --machine "$tmp/state-twice.json" --budget 10
python -c "print('{\"x\": ' + '[' * 1100 + ']' * 1100 + '}')" > "$tmp/deep.json"
refuses classical --game "$tmp/deep.json"
python -c "print('{\"k\": 1, \"n\": 1, \"pi\": [[' + '9' * 400 + ']], \"wins\": []}')" \
  > "$tmp/big-pi.json"
refuses classical --game "$tmp/big-pi.json"
python -c "print('{\"k\": 1, \"n\": 1, \"pi\": [[1.0]], \"wins\": [[1, 1, 1, ' + '9' * 3001 + ']]}')" \
  > "$tmp/long-index.json"
refuses classical --game "$tmp/long-index.json"
[ "$(wc -c < "$tmp/err")" -le 200 ]
python -c "import json; m = json.load(open('src/nlv/data/looper.json')); m['states'].append('q' * 5000); print(json.dumps(m))" > "$tmp/long-state.json"
refuses tm run --machine "$tmp/long-state.json" --budget 10
[ "$(wc -c < "$tmp/err")" -le 200 ]
PYTHONPATH=src python -m nlv.cli tm run --json --machine src/nlv/data/looper.json \
  --budget 300000 > "$tmp/looper.out"
grep -q '"status": "budget_exceeded"' "$tmp/looper.out"
grep -q '"steps": 300000' "$tmp/looper.out"
PYTHONPATH=src python -m nlv.cli tm run --json --machine src/nlv/data/looper.json \
  --budget 1000000000000 > "$tmp/looper-huge.out"
grep -q '"steps": 1000000000000' "$tmp/looper-huge.out"
refuses tm run --machine src/nlv/data/looper.json --budget 1000000000000 --trace
PYTHONPATH=src python -m nlv.cli tm run --json --trace --machine src/nlv/data/looper.json \
  --budget 100000 | python -c "import json, sys; r = json.load(sys.stdin); sys.exit(len(r['trace']) != r['steps'])"
refuses epr --trials 1000000001 --seed 0
refuses moments density --n 1 --d 1 --p1 1 --p2 2 --eps 0.1 --count1 20000 --count2 20000 \
  --seed 0
PYTHONPATH=src python -m nlv.cli tm run --json --machine src/nlv/data/copier.json \
  --input 1011 --budget 100 > "$tmp/copier.out"
grep -q '"output": "1011"' "$tmp/copier.out"
PYTHONPATH=src python -m nlv.cli classical --json --game src/nlv/data/chsh.json \
  > "$tmp/classical.out"
grep -q '"value": 0.75' "$tmp/classical.out"
echo '{"dim": 1, "matrices": [[1.0000000005, 0.0]]}' > "$tmp/edge.json"
PYTHONPATH=src python -m nlv.cli moments map --n 1 --d 3 --matrices "$tmp/edge.json"
twice() {
  written=$1
  shift
  for run in 1 2; do
    PYTHONPATH=src python -m nlv.cli "$@" > "$tmp/out"
    grep -v '"runtime_seconds"' "$tmp/out" > "$tmp/out$run"
    cp "$written" "$tmp/written$run"
  done
  cmp "$tmp/out1" "$tmp/out2" && cmp "$tmp/written1" "$tmp/written2"
}
twice "$tmp/spec.json" quantum-lb --json --game src/nlv/data/chsh.json --dim 2 \
  --restarts 8 --seed 0 --spec-out "$tmp/spec.json"
twice "$tmp/family.json" sync-lb --json --game src/nlv/data/chsh.json --dim 2 \
  --restarts 8 --seed 0 --family-out "$tmp/family.json"
# Sizes where the searches' batched BLAS paths engage.
PYTHONPATH=src python -c "from nlv.game import random_game, save_game; print(save_game(random_game(4, 3, 2)), end='')" > "$tmp/r432.json"
twice "$tmp/spec8.json" quantum-lb --json --game "$tmp/r432.json" --dim 8 \
  --restarts 8 --seed 0 --spec-out "$tmp/spec8.json"
twice "$tmp/family16.json" sync-lb --json --game "$tmp/r432.json" --dim 16 \
  --restarts 8 --seed 0 --family-out "$tmp/family16.json"
twice "$tmp/cloud.csv" moments cloud --json --n 2 --d 3 --p 3 --count 400 --seed 0 \
  --out "$tmp/cloud.csv"
PYTHONPATH=src python -c "from nlv.linalg import interleave; from nlv.moments import sample_moment_cloud; print(''.join(','.join(map(repr, interleave(row))) + '\n' for row in sample_moment_cloud(2, 3, 3, 400, 0)), end='')" > "$tmp/cloud-repr.csv"
cmp "$tmp/cloud.csv" "$tmp/cloud-repr.csv"
# Two middle word lengths, and 4^3 prefixes traced in three blocks of 5^2.
twice "$tmp/cloud4.csv" moments cloud --json --n 2 --d 4 --p 5 --count 30 --seed 0 \
  --out "$tmp/cloud4.csv"
code=0
PYTHONPATH=src python -m nlv.cli demo-chsh --json > /dev/full 2> "$tmp/err" || code=$?
cat "$tmp/err"
[ "$code" -eq 1 ]
[ "$(wc -l < "$tmp/err")" -eq 1 ]
# In-place rewrites: a shrinking one leaves no stale tail, and a
# device target is written but never truncated.
PYTHONPATH=src python -m nlv.cli quantum-lb --game src/nlv/data/chsh.json --dim 3 \
  --restarts 2 --seed 0 --spec-out "$tmp/shrunk.json" > /dev/null
longer=$(wc -c < "$tmp/shrunk.json")
for out in shrunk fresh; do
  PYTHONPATH=src python -m nlv.cli quantum-lb --game src/nlv/data/chsh.json --dim 2 \
    --restarts 2 --seed 0 --spec-out "$tmp/$out.json" > /dev/null
done
[ "$(wc -c < "$tmp/fresh.json")" -lt "$longer" ]
cmp "$tmp/shrunk.json" "$tmp/fresh.json"
PYTHONPATH=src python -m nlv.cli moments cloud --n 2 --d 3 --p 3 --count 400 --seed 0 \
  --out /dev/null > /dev/null
# The density report and the epr run write no file.
twice /dev/null moments density --json --n 2 --d 2 --p1 2 --p2 3 --eps 0.1 --seed 1
twice /dev/null epr --json --trials 10000 --seed 3 --basis horizontal
