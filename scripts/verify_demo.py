#!/usr/bin/env python3
"""Walk through the regularity identity on four module shapes.

For each module the script prints the Tor table, the local cohomology rows,
both sides of the identity, and the nu certificates that pin down which Tor
classes realize the stable degrees.
"""
import argparse

from fihomlab import (
    Matrix,
    basic_rep,
    direct_sum,
    fi_constant,
    fi_induced,
    fi_torsion_concentrated,
    field_by_name,
    image,
    induced_morphism,
    verify_main_theorem,
)
from fihomlab.report import render_verify_text, theorem_data


def positive_part(field, window):
    A = fi_constant(field, window)
    f = induced_morphism(basic_rep("trivial", 1, field), A,
                         Matrix.from_rows(field, [[1]]))
    return image(f)


def build_suite(field, window):
    yield "ground algebra", fi_constant(field, window)
    yield "torsion at degree 2", fi_torsion_concentrated(
        basic_rep("trivial", 2, field), 2, window)
    yield "positive part of the ground algebra", positive_part(field, window)
    yield "induced plus torsion", direct_sum(
        fi_induced(basic_rep("sign", 2, field), window),
        fi_torsion_concentrated(basic_rep("trivial", 1, field), 1, window),
    )


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--field", default="F5")
    ap.add_argument("--window", type=int, default=6)
    args = ap.parse_args()
    field = field_by_name(args.field)
    for name, module in build_suite(field, args.window):
        report = verify_main_theorem(module)
        print(f"### {name} (field {field.name}, window {args.window})")
        print(render_verify_text(theorem_data(report)))
        print()


if __name__ == "__main__":
    main()
