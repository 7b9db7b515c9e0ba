"""Block-Markov feedback scheme at two block lengths.

All three users share one linear generator.  Users 1 and 2 see the first
channel output component through feedback, decode each other's message sum,
and spend their second input coordinate retransmitting the previous block
while user 3 injects its own estimate of the sum codeword.  The receiver
unwinds the pair from the next block, cancels the sum, and recovers the
third message.  Doubling n at (roughly) fixed rate should push every error
count down, and user 3's sum decode should track a plain point-to-point
BSC run of the same code.
"""

from trimac import FBConfig, linear_codebook, ptp_simulation, run_fb_simulation, stream, sumset

DELTA = 0.1
BLOCKS = 1001


def show(config: FBConfig) -> None:
    report = run_fb_simulation(config)
    ptp = ptp_simulation(config, report.decoder)
    print(f"k={config.k} n={config.n} rate={config.rate:.4f} "
          f"({report.delivered} message blocks)")
    for kind in ("sum", "pair", "third", "message"):
        lo, hi = report.error_ci(kind)
        print(f"  {kind:8} error {report.error_rate(kind):.4f}  ci ({lo:.4f}, {hi:.4f})")
    print(f"  ptp ref  error {ptp.p_hat:.4f}  ci ({ptp.ci_lo:.4f}, {ptp.ci_hi:.4f})")
    if report.code_sumset is not None:
        print(f"  self-sumset gap {report.code_sumset.gap} "
              f"({report.code_sumset.size_sum} words)")
    print()


def main() -> None:
    for k, n in ((3, 8), (5, 16)):
        show(FBConfig(k, n, BLOCKS, DELTA, seed=0))

    # identical books close under addition; independent ones blow up
    g = stream(0, 21).integers(0, 2, (8, 16))
    code = linear_codebook(g)
    a, b = stream(0, 22).integers(0, 2, (2, 256, 16))
    print("sumset gap, one shared linear book: ", sumset(code, code).gap)
    print("sumset gap, two independent books:   ", round(sumset(a, b).gap, 4))


if __name__ == "__main__":
    main()
