#!/usr/bin/env python3
"""Walk through the complementary-signals example on the exact population joint.

Two independent fair bits whose XOR is the state: each bit alone is worthless,
together they are decisive, and the attribution splits the joint value evenly.
"""

import argparse

from infogain import information_gain, make_xor_joint, shapley_exact
from infogain.bootstrap import set_label
from infogain.synth import xor_problem


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.parse_args()

    joint, problem = make_xor_joint(), xor_problem()

    print("benchmark information gains (quadratic score):")
    for v1, ground in [(["s1"], []), (["s2"], []), (["s1", "s2"], []), (["s1"], ["s2"])]:
        gain = information_gain(joint, problem, v1, ground)
        print(f"  gain({set_label(gain.v1):6s}; {set_label(gain.ground):4s}) = {gain.value:.4f}")

    report = shapley_exact(joint, problem)
    print("\nper-signal attribution of the joint gain:")
    for name, value in zip(report.signals, report.values):
        print(f"  phi({name}) = {value:.4f}")
    print(f"  total = {sum(report.values):.4f} (gain of both signals over nothing)")


if __name__ == "__main__":
    main()
