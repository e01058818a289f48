# abba.sh — the ABBA overhead estimator, sourced by check.sh and
# bench.sh so the gate and the recorded numbers are one computation.
#
# abba_delta BENCH FILE prints, as a percentage with two decimals, the
# MEDIAN of BENCH's per-round on-vs-off deltas in FILE, a `go test
# -bench` log of ABBA rounds: four single-variant invocations per round
# in the order off, on, on, off, each round scored as
# (sum(on) - sum(off)) / sum(off). It exits nonzero when FILE holds no
# complete round for BENCH.
abba_delta() {
    awk -v b="$1" '
        $1 ~ "^" b "/off" { off[++no] = $3 }
        $1 ~ "^" b "/on"  { on[++nn] = $3 }
        END {
            rounds = int((no < nn ? no : nn) / 2)
            if (rounds == 0) exit 1
            for (r = 1; r <= rounds; r++) {
                o = off[2*r-1] + off[2*r]; n = on[2*r-1] + on[2*r]
                d[r] = (n - o) / o * 100
            }
            for (i = 2; i <= rounds; i++)
                for (j = i; j > 1 && d[j] < d[j-1]; j--) { t = d[j]; d[j] = d[j-1]; d[j-1] = t }
            printf "%.2f", d[int((rounds + 1) / 2)]
        }' "$2"
}
