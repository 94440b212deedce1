"""Prove that a lambda term diverges, with a finite cyclic proof.

Big-step call-by-value evaluation relates a term to its value, so it
normally has nothing to say about a term that loops.  Adding the
coaxiom eval(e, inf) for every application in the term's closure makes
divergence derivable -- and the derivation is a finite proof object
with back-references, which we can print and validate like any other.
"""

from coaxiom import (INF, REGULAR_GENERATED, generated, prove_regular,
                     render_term, sort_judgments, validate)
from coaxiom.gen import gen_lambda, parse_lambda

SOURCE = r"(\x. x x) (\x. x x)"
DELTA = parse_lambda(SOURCE)


def main():
    print(f"term: {SOURCE}")
    sys_ = gen_lambda(DELTA)
    got = generated(sys_).judgments

    print("evaluation judgments that hold:")
    for j in sort_judgments(got):
        print(f"  {render_term(j)}")
    print()

    diverging = [j for j in sort_judgments(got) if j.args[1] == INF]
    for target in diverging:
        proof = prove_regular(sys_, target)
        print(f"cyclic proof of {render_term(target)}:")
        print(f"  root: {render_term(proof.root)}")
        for j in sort_judgments(proof.choice):
            rule = sys_.regular_rules[proof.choice[j]]
            premises = ", ".join(render_term(p) for p in rule.premises)
            print(f"  {render_term(j)} <- {premises or '(axiom)'}")
        report = validate(sys_, proof, REGULAR_GENERATED)
        print(f"  validates: {report.ok}")
        print()


if __name__ == "__main__":
    main()
