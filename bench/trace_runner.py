"""Runs one chamberwalk CLI operation with a span around every call into a layer.

    python3 bench/trace_runner.py OUT.json -- count --kind axis ...
    python3 bench/trace_runner.py OUT.json --kernel-probe KIND K WEIGHTS U V N

The layers are the package modules.  Every public function of a layer is
wrapped at each name it is looked up through: ``asym.maximal_points`` is a
binding separate from ``stepmodel.maximal_points``, and both are replaced.
Spans are coalesced per calling context, so a node is one (parent, name)
pair with its call count, total duration, errors and first start / last
end; a hot inner call then costs a counter update rather than a new record.
The nodes stay in memory and are written to OUT.json when the process ends,
whether the CLI returns, exits or raises.

The kernel probe times one cold ``exact.count_unconstrained`` call in a
fresh process, so no displacement table is cached from earlier work.
"""

import time

# First, so that the measured import includes every module the CLI pulls in.
_T0 = time.perf_counter()
import chamberwalk.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _T0

import functools  # noqa: E402
import importlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402

from layers import LAYERS  # noqa: E402
# Coordinate predicates called once per lattice point inside the DP and the
# endpoint enumeration; their cost stays in the caller's self time.
UNWRAPPED = {"stepmodel.in_chamber", "stepmodel.lattice_contains"}
COUNTERS = {"exact.count_confined", "exact.count_confined_free",
            "exact.count_reflection", "exact.count_reflection_free"}

# node: [name, parent, first_start, last_end, total_s, calls, errors, attrs]
NODES: list[list] = [["cli.main", -1, 0.0, 0.0, 0.0, 1, 0, {}]]
_INDEX: dict[tuple[int, str], int] = {}
_STACK = [0]


def _node(name: str) -> int:
    key = (_STACK[-1], name)
    idx = _INDEX.get(key)
    if idx is None:
        idx = _INDEX[key] = len(NODES)
        NODES.append([name, _STACK[-1], None, 0.0, 0.0, 0, 0, {}])
    return idx


def _bits(value) -> int:
    num = getattr(value, "numerator", value)
    den = getattr(value, "denominator", 1)
    return abs(num).bit_length() + (den.bit_length() if den != 1 else 0)


def _annotate(name: str, attrs: dict, fn, args: tuple, kwargs: dict, result) -> None:
    if name in COUNTERS:
        attrs["result_bits"] = attrs.get("result_bits", 0) + _bits(result)
        attrs["nonzero"] = attrs.get("nonzero", 0) + (result != 0)
        bound = inspect.signature(fn).bind(*args, **kwargs).arguments
        if name.startswith("exact.count_confined"):
            attrs["steps"] = attrs.get("steps", 0) + bound["n"]
        elif name == "exact.count_reflection":
            k = bound["spec"].k
            attrs["full_signed_sums"] = attrs.get("full_signed_sums", 0) \
                + math.factorial(k) * 2 ** k
    elif name == "verify.run_suite":
        attrs["checks"] = attrs.get("checks", 0) + len(result)
        attrs["failed_checks"] = attrs.get("failed_checks", 0) + sum(
            not r["pass"] for r in result)


def _wrap(name: str, fn):
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def counting(*args, **kwargs):
            idx = _node(name)
            NODES[idx][5] += 1
            attrs = NODES[idx][7]
            for item in fn(*args, **kwargs):
                attrs["items"] = attrs.get("items", 0) + 1
                yield item
        return counting

    @functools.wraps(fn)
    def spanned(*args, **kwargs):
        label = f"{name}[{args[0] if args else kwargs['name']}]" \
            if name == "verify.run_suite" else name
        idx = _node(label)
        node = NODES[idx]
        _STACK.append(idx)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            node[6] += 1
            raise
        finally:
            end = time.perf_counter()
            _STACK.pop()
            if node[2] is None:
                node[2] = start - _T0
            node[3] = end - _T0
            node[4] += end - start
            node[5] += 1
        _annotate(name, node[7], fn, args, kwargs, result)
        return result
    return spanned


def install() -> None:
    """Replaces every binding of every public layer function with its wrapper."""
    modules = [importlib.import_module(f"chamberwalk.{layer}") for layer in LAYERS]
    wrappers = {}
    for mod in modules:
        layer = mod.__name__.rsplit(".", 1)[1]
        for attr, obj in vars(mod).items():
            name = f"{layer}.{attr}"
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_") and name not in UNWRAPPED):
                wrappers[obj] = _wrap(name, obj)
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])


def _dump(path: str, extra: dict) -> None:
    NODES[0][3] = time.perf_counter() - _T0
    NODES[0][4] = NODES[0][3] - NODES[0][2]
    with open(path, "w") as fh:
        json.dump({"import_s": IMPORT_S, "nodes": NODES, **extra}, fh)


def _kernel_probe(argv: list[str]) -> dict:
    from fractions import Fraction

    from chamberwalk import exact
    from chamberwalk.stepmodel import AtomicKind, CompositeSpec

    kind, k, weights, u, v, n = argv
    spec = CompositeSpec(AtomicKind(kind), int(k), [Fraction(w) for w in weights.split(",")])
    point = [int(x) for x in u.split(",")], [int(x) for x in v.split(",")]
    start = time.perf_counter()
    exact.count_unconstrained(spec, *point, int(n))
    return {"kernel_s": time.perf_counter() - start}


def main() -> None:
    out, mode, rest = sys.argv[1], sys.argv[2], sys.argv[3:]
    if mode == "--kernel-probe":
        _dump(out, _kernel_probe(rest))
        return
    if mode != "--":
        sys.exit("usage: trace_runner.py OUT.json (-- CLI-ARGS | --kernel-probe ...)")
    install()
    NODES[0][2] = time.perf_counter() - _T0
    try:
        chamberwalk.cli.main(args=rest, prog_name="chamberwalk")
    except Exception:
        NODES[0][6] += 1
        raise
    finally:
        _dump(out, {})


if __name__ == "__main__":
    main()
