"""Job files: a small line-based description language for batch runs.

Grammar (one statement per line, ``#`` starts a comment)::

    field Q | F<q>
    window <N>
    policy nu-p <2|3>
    rep <name> <trivial|sign|regular|natural> <degree>
    module <name> constant
    module <name> induced <rep>
    module <name> torsion <rep> <degree>
    module <name> sum <mod> <mod>
    module <name> shift <mod> <a>
    module <name> truncate <mod> <c>
    module <name> kernel <morphism>
    module <name> cokernel <morphism>
    module <name> image <morphism>
    morphism <name> induced <rep> <module> <entries>
    task <tor|reg|lcoh|nu|verify> <module>
    task <koszul-check|good-ideal-check>

Morphism entries give the equivariant seed matrix (target piece dim x rep
dim), row-major, rows separated by ``;`` and columns by ``,``; rational
entries may use ``p/q``.  Names must be defined before use, which keeps all
definitions acyclic.  ``field``, ``window`` and ``policy nu-p`` may each
appear once, and a line with more tokens than its form is an error.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .fields import Field, field_by_name

MODULE_FORMS = {
    "constant": 0, "induced": 1, "torsion": 2, "sum": 2,
    "shift": 2, "truncate": 2, "kernel": 1, "cokernel": 1, "image": 1,
}
TASKS_WITH_MODULE = ("tor", "reg", "lcoh", "nu", "verify")
TASKS_BARE = ("koszul-check", "good-ideal-check")
# the token count of each fixed-length statement, its keyword included
STATEMENT_TOKENS = {"field": 2, "window": 2, "policy": 3, "rep": 4}


class SpecParseError(ValueError):
    def __init__(self, errors):
        self.errors = list(errors)
        lines = "; ".join(f"line {ln}: {msg}" for ln, msg in self.errors)
        super().__init__(f"invalid job spec: {lines}")


@dataclass
class JobSpec:
    field: Field
    window: int
    reps: dict           # name -> (kind, degree)
    modules: dict        # name -> tuple construction
    morphisms: dict      # name -> ("induced", rep, target, entries tuple-of-tuples)
    tasks: list          # (task, module-name or None)
    policy: dict         # nu-p, when the job sets it
    order: list          # module and morphism names in definition order

    def canonical_text(self) -> str:
        out = [f"field {self.field.name}", f"window {self.window}"]
        if "nu-p" in self.policy:
            out.append(f"policy nu-p {self.policy['nu-p']}")
        for name, (kind, deg) in self.reps.items():
            out.append(f"rep {name} {kind} {deg}")
        for name in self.order:
            if name in self.modules:
                spec = self.modules[name]
                out.append(f"module {name} " + " ".join(str(x) for x in spec))
            else:
                _, rep, target, entries = self.morphisms[name]
                txt = ";".join(",".join(str(x) for x in row) for row in entries)
                out.append(f"morphism {name} induced {rep} {target} {txt}")
        for task, arg in self.tasks:
            out.append(f"task {task}" + (f" {arg}" if arg else ""))
        return "\n".join(out) + "\n"


def parse_spec(text: str) -> JobSpec:
    errors = []
    fieldv: Field | None = None
    window = None
    reps: dict = {}
    modules: dict = {}
    morphisms: dict = {}
    tasks: list = []
    policy: dict = {}
    order: list = []
    seen: set = set()   # the field, window and policy nu-p lines read so far

    def known(name):
        return name in reps or name in modules or name in morphisms

    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        head = parts[0]
        key = " ".join(parts[:2]) if head == "policy" else head
        if key in seen or len(parts) > STATEMENT_TOKENS.get(head, len(parts)):
            errors.append((ln, f"repeated {key!r} statement" if key in seen
                           else f"{head} takes {STATEMENT_TOKENS[head] - 1} argument(s)"))
            continue
        if key in ("field", "window", "policy nu-p"):
            seen.add(key)
        try:
            if head == "field":
                fieldv = field_by_name(parts[1])
            elif head == "window":
                window = int(parts[1])
                if window < 0:
                    errors.append((ln, "window must be nonnegative"))
            elif head == "policy":
                if parts[1] == "nu-p":
                    policy["nu-p"] = int(parts[2])
                else:
                    errors.append((ln, f"unknown policy knob {parts[1]!r}"))
            elif head == "rep":
                name, kind, deg = parts[1], parts[2], int(parts[3])
                if known(name):
                    errors.append((ln, f"name {name!r} already defined"))
                elif kind not in ("trivial", "sign", "regular", "natural"):
                    errors.append((ln, f"unknown rep kind {kind!r}"))
                elif deg < 0:
                    errors.append((ln, "rep degree must be nonnegative"))
                else:
                    reps[name] = (kind, deg)
            elif head == "module":
                name, form = parts[1], parts[2]
                if known(name):
                    errors.append((ln, f"name {name!r} already defined"))
                    continue
                if form not in MODULE_FORMS:
                    errors.append((ln, f"unknown module form {form!r}"))
                    continue
                args = parts[3:]
                if len(args) != MODULE_FORMS[form]:
                    errors.append((ln, f"{form} takes {MODULE_FORMS[form]} argument(s)"))
                    continue
                spec = None
                if form == "constant":
                    spec = ("constant",)
                elif form == "induced":
                    if args[0] not in reps:
                        errors.append((ln, f"unknown rep {args[0]!r}"))
                        continue
                    spec = ("induced", args[0])
                elif form == "torsion":
                    if args[0] not in reps:
                        errors.append((ln, f"unknown rep {args[0]!r}"))
                        continue
                    spec = ("torsion", args[0], int(args[1]))
                elif form == "sum":
                    if not all(a in modules for a in args):
                        errors.append((ln, f"sum arguments must be defined modules: {args}"))
                        continue
                    spec = ("sum", args[0], args[1])
                elif form in ("shift", "truncate"):
                    if args[0] not in modules:
                        errors.append((ln, f"unknown module {args[0]!r}"))
                        continue
                    spec = (form, args[0], int(args[1]))
                else:  # kernel / cokernel / image
                    if args[0] not in morphisms:
                        errors.append((ln, f"unknown morphism {args[0]!r}"))
                        continue
                    spec = (form, args[0])
                modules[name] = spec
                order.append(name)
            elif head == "morphism":
                name = parts[1]
                if known(name):
                    errors.append((ln, f"name {name!r} already defined"))
                    continue
                if parts[2] != "induced" or len(parts) != 6:
                    errors.append((ln, "morphism form: morphism <name> induced <rep> <module> <entries>"))
                    continue
                rep, target, entries = parts[3], parts[4], parts[5]
                if rep not in reps:
                    errors.append((ln, f"unknown rep {rep!r}"))
                    continue
                if target not in modules:
                    errors.append((ln, f"unknown module {target!r}"))
                    continue
                rows = tuple(
                    tuple(Fraction(x) for x in row.split(",") if x != "")
                    for row in entries.split(";")
                )
                if len({len(row) for row in rows}) > 1:
                    errors.append((ln, f"seed rows of {entries!r} differ in length"))
                    continue
                morphisms[name] = ("induced", rep, target, rows)
                order.append(name)
            elif head == "task":
                task = parts[1]
                if task in TASKS_WITH_MODULE:
                    if len(parts) != 3 or parts[2] not in modules:
                        errors.append((ln, f"task {task} needs a defined module"))
                        continue
                    tasks.append((task, parts[2]))
                elif task in TASKS_BARE:
                    if len(parts) != 2:
                        errors.append((ln, f"task {task} takes no module"))
                        continue
                    tasks.append((task, None))
                else:
                    errors.append((ln, f"unknown task {task!r}"))
            else:
                errors.append((ln, f"unknown statement {head!r}"))
        except (IndexError, ValueError, ZeroDivisionError) as exc:
            errors.append((ln, f"malformed statement: {exc}"))

    if fieldv is None:
        errors.append((0, "missing 'field' statement"))
    if window is None:
        errors.append((0, "missing 'window' statement"))
    if not errors:
        # semantic checks that need the whole document; window sufficiency is
        # a runtime concern (exit code 2), not a parse error
        p = policy.get("nu-p")
        if p is not None:
            if p not in (2, 3):
                errors.append((0, "nu-p must be 2 or 3"))
            elif fieldv.characteristic == p:
                errors.append(
                    (0, f"{p} not invertible in {fieldv.name}: the block size must be "
                        f"invertible (for p=3 the generator needs the scalar 2/3)")
                )
        for name, (*_, rows) in morphisms.items():
            try:
                for row in rows:
                    for x in row:
                        fieldv.of(x)
            except ZeroDivisionError as exc:
                errors.append((0, f"morphism {name!r}: an entry is not in {fieldv.name}: {exc}"))
    if errors:
        raise SpecParseError(errors)
    return JobSpec(fieldv, window, reps, modules, morphisms, tasks, policy, order)
