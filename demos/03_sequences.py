"""Generating and counting de Bruijn sequences.

A (k, n)-de Bruijn sequence is a cyclic word of length k^n over digits
0..k-1 containing every length-n word exactly once.  Two generators are
provided:

  * euler  - an Eulerian circuit of the de Bruijn graph on k^(n-1) nodes
             (Hierholzer's algorithm);
  * greedy - the prefer-largest rule starting from the all-zeros state.

Three independent counters cross-check each other:

  * formula - the closed form k!^(k^(n-1)) / k^n;
  * brute   - filter all k^(k^n) cyclic words (tiny cases only);
  * best    - spanning-arborescence count of the de Bruijn graph times the
              product of (out-degree - 1)! over nodes, via an exact
              fraction-free integer determinant.
"""

from debruijn_arrays import (BudgetError, count_best, count_brute,
                             count_formula, generate_sequence,
                             verify_sequence)


def main() -> None:
    for k, n in [(2, 3), (2, 4), (3, 2), (4, 2)]:
        for method in ("euler", "greedy"):
            word = generate_sequence(k, n, method=method)
            report = verify_sequence(word, k, n)
            print(f"(k={k}, n={n}) {method:6s}: {word} "
                  f"valid={report.valid}")
        print()

    print("How many (k, n)-de Bruijn sequences are there?")
    for k, n in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2)]:
        formula = count_formula(k, n)
        best = count_best(k, n)
        line = f"  (k={k}, n={n}): formula={formula}  best={best}"
        try:
            line += f"  brute={count_brute(k, n)}"
        except BudgetError:
            pass  # instance too large for the brute-force counter
        print(line)
        assert formula == best


if __name__ == "__main__":
    main()
