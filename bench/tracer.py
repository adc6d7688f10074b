"""Per-layer tracing of ``nielsen`` from outside the package.

The tracer wraps public functions by replacing every module attribute of
the ``nielsen`` package that holds them (``nielsen.cli.ball`` and
``nielsen.amenability.ball`` are both replaced by one wrapper of
``nielsen.explore.ball``) and methods on the classes that define them. The
source tree is not edited. ``uninstall`` puts every original back.

Every wrapper keeps a call count and self time: its duration minus the time
spent in wrapped callees. Hot leaves (group ``mul``/``inv``, key encoding,
``apply_move``, the generation test) keep only those two numbers; every
other call also appends a span to an in-memory list, which ``write_spans``
saves at the end. Derived counts (ball vertices, darts, export bytes, ...)
come from the values the wrapped functions return.
"""

from __future__ import annotations

import json
import sys
import time

import workloads

# layer name, defining module, attribute path (Class.method for methods), hot
LAYERS = (
    ("cli.main", "nielsen.cli", "main", False),
    ("groups.from_json", "nielsen.groups", "group_from_json", False),
    ("groups.is_generating", "nielsen.groups", "Group.is_generating", True),
    ("moves.apply_move", "nielsen.moves", "apply_move", True),
    ("explore.state_key", "nielsen.explore", "state_key", True),
    ("explore.ball", "nielsen.explore", "ball", False),
    ("explore.validate", "nielsen.explore", "GraphFragment.validate", False),
    ("explore.growth_profile", "nielsen.explore", "growth_profile", False),
    ("explore.components", "nielsen.explore", "components", False),
    ("explore.to_jsonl", "nielsen.explore", "GraphFragment.to_jsonl", False),
    ("explore.to_dot", "nielsen.explore", "GraphFragment.to_dot", False),
    ("explore.fragment_from_jsonl", "nielsen.explore", "fragment_from_jsonl", False),
    ("explore.euclid_reduce", "nielsen.explore", "euclid_reduce", False),
    ("amenability.cheeger_search", "nielsen.amenability", "cheeger_search", False),
    ("amenability.iso_ratio", "nielsen.amenability", "iso_ratio", False),
    ("amenability.closed_walks", "nielsen.amenability", "closed_walks", False),
    ("covering.epimorphism_from_json", "nielsen.covering", "epimorphism_from_json", False),
    ("covering.verify_star_bijection", "nielsen.covering", "verify_star_bijection", False),
    ("covering.random_generating_tuple", "nielsen.covering", "random_generating_tuple", True),
    ("covering.verify_surjectivity", "nielsen.covering", "verify_surjectivity_on_fragment", False),
    ("forest.verify_forest", "nielsen.forest", "verify_forest", False),
    ("forest.component_dot", "nielsen.forest", "component_dot", False),
    ("tame.aut_group", "nielsen.tame", "aut_group", False),
    ("tame.tame_subgroup", "nielsen.tame", "tame_subgroup", False),
    ("tame.verify_component_structure", "nielsen.tame", "verify_component_structure", False),
)

# group-law leaves, wrapped on every Group subclass that defines them
GROUP_LEAVES = (("groups.mul", "mul"), ("groups.inv", "inv"), ("groups.encode_element", "encode_element"))

# per-layer metric name -> unit; the order is the order of BENCHMARK.json
METRICS = {
    "moves.apply_move_calls": "count",
    "moves.apply_move_s": "s",
    "explore.state_key_calls": "count",
    "explore.state_key_s": "s",
    "groups.encode_element_calls": "count",
    "groups.encode_element_s": "s",
    "explore.ball_s": "s",
    "explore.ball_vertices": "count",
    "explore.ball_darts": "count",
    "explore.ball_new_per_dart": "ratio",
    "explore.validate_s": "s",
    "explore.growth_profile_s": "s",
    "groups.mul_calls": "count",
    "groups.inv_calls": "count",
    "groups.mul_s": "s",
    "groups.inv_s": "s",
    "groups.is_generating_calls": "count",
    "groups.is_generating_s": "s",
    "groups.from_json_s": "s",
    "covering.epimorphism_from_json_s": "s",
    "explore.components_s": "s",
    "explore.components_tuples": "count",
    "explore.components_generating_share": "ratio",
    "explore.components_below_switch": "count",
    "explore.components_above_switch": "count",
    "tame.aut_group_s": "s",
    "tame.tame_subgroup_s": "s",
    "tame.verify_component_structure_s": "s",
    "tame.aut_order": "count",
    "amenability.cheeger_search_s": "s",
    "amenability.iso_ratio_calls": "count",
    "amenability.iso_ratio_s": "s",
    "amenability.closed_walks_s": "s",
    "amenability.walk_dp_steps": "count",
    "explore.to_jsonl_s": "s",
    "explore.to_dot_s": "s",
    "explore.export_bytes": "bytes",
    "explore.fragment_from_jsonl_s": "s",
    "explore.import_bytes": "bytes",
    "covering.verify_star_bijection_s": "s",
    "covering.star_checks": "count",
    "covering.sample_accept_share": "ratio",
    "covering.verify_surjectivity_s": "s",
    "covering.lifted": "count",
    "forest.verify_forest_s": "s",
    "forest.vertices_checked": "count",
    "forest.component_dot_s": "s",
    "explore.euclid_reduce_s": "s",
    "explore.euclid_word_moves": "count",
    "cli.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "trace.overhead_s": "s",
}


def _resolve(owner, path: str):
    obj = owner
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


class Tracer:
    def __init__(self):
        self.acc: dict[str, list] = {}      # layer -> [self seconds, calls]
        self.counts: dict[str, float] = {}  # derived counters
        self.spans: list[tuple] = []
        self.op = ""                        # span tag of the op being run
        self.missing: list[str] = []        # layers the program no longer has
        self._stack = [0.0]                 # callee seconds of each open frame
        self._span_ids = [None]
        self._patches: list[tuple] = []

    # -- wrapping ----------------------------------------------------------

    def wrap(self, name: str, fn, hot: bool):
        acc = self.acc.setdefault(name, [0.0, 0])
        stack, span_ids, spans = self._stack, self._span_ids, self.spans
        clock = time.perf_counter
        observe = OBSERVERS.get(name)
        tracer = self

        if hot and observe is None:
            def leaf(*args, **kwargs):
                stack.append(0.0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    acc[0] += dt - stack.pop()
                    acc[1] += 1
                    stack[-1] += dt

            return leaf

        def spanned(*args, **kwargs):
            token = observe.enter(tracer) if observe else None
            if not hot:
                sid = len(spans)
                parent = span_ids[-1]
                span_ids.append(sid)
                spans.append(None)
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                acc[0] += t1 - t0 - stack.pop()
                acc[1] += 1
                stack[-1] += t1 - t0
                if not hot:
                    span_ids.pop()
                    spans[sid] = (sid, parent, tracer.op, name, t0, t1)
            if observe:
                observe.exit(tracer, args, kwargs, result, token)
            return result

        return spanned

    def install(self) -> None:
        """Wrap every layer in the already imported ``nielsen`` modules."""
        modules = {k: m for k, m in sys.modules.items() if k == "nielsen" or k.startswith("nielsen.")}
        for name, owner, path, hot in LAYERS:
            try:
                orig = _resolve(modules[owner], path)
            except (KeyError, AttributeError):
                self.missing.append(name)
                continue
            wrapper = self.wrap(name, orig, hot)
            if "." in path:
                cls_name, meth = path.split(".")
                self._patch(getattr(modules[owner], cls_name), meth, wrapper)
                continue
            for mod in modules.values():
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, attr, wrapper)
        base = getattr(modules.get("nielsen.groups"), "Group", None)
        for name, meth in GROUP_LEAVES:
            wrapped = False
            for cls in _subclasses(base) if base else ():
                if meth in vars(cls):
                    self._patch(cls, meth, self.wrap(name, vars(cls)[meth], True))
                    wrapped = True
            if not wrapped:
                self.missing.append(name)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def add(self, counter: str, value: float) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + value

    def reset(self) -> None:
        """Zero every counter, keeping the wrappers and the spans."""
        for acc in self.acc.values():
            acc[0], acc[1] = 0.0, 0
        self.counts.clear()

    def self_seconds(self) -> dict[str, float]:
        return {name: acc[0] for name, acc in self.acc.items()}

    def metrics(self, stdout_bytes: int) -> dict[str, float]:
        """Per-layer metrics of everything run since the last ``reset``."""
        s = {name: acc[0] for name, acc in self.acc.items()}
        calls = {name: acc[1] for name, acc in self.acc.items()}
        c = self.counts.get

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for name, unit in METRICS.items():
            if name.endswith("_calls"):
                out[name] = calls.get(name[: -len("_calls")], 0)
            elif name.endswith("_s") and name[:-2] in s:
                out[name] = s[name[:-2]]
        out.update({
            "explore.ball_vertices": c("ball_vertices", 0),
            "explore.ball_darts": c("ball_darts", 0),
            "explore.ball_new_per_dart": ratio(c("ball_new", 0), c("ball_darts", 0)),
            "explore.components_tuples": c("components_tuples", 0),
            "explore.components_generating_share": ratio(c("components_generating", 0), c("components_tuples", 0)),
            "explore.components_below_switch": c("components_below", 0),
            "explore.components_above_switch": c("components_above", 0),
            "tame.aut_order": c("aut_order", 0),
            "amenability.walk_dp_steps": c("walk_dp_steps", 0),
            "explore.export_bytes": c("export_bytes", 0),
            "explore.import_bytes": c("import_bytes", 0),
            "covering.star_checks": c("star_checks", 0),
            "covering.sample_accept_share": ratio(c("samples_accepted", 0), c("sample_attempts", 0)),
            "covering.lifted": c("lifted", 0),
            "forest.vertices_checked": c("vertices_checked", 0),
            "explore.euclid_word_moves": c("euclid_word_moves", 0),
            "cli.self_s": s.get("cli.main", 0.0),
            "cli.stdout_bytes": stdout_bytes,
        })
        return {name: out.get(name, 0) for name in METRICS if name != "trace.overhead_s"}

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, parent, op, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op, "name": name,
                                     "start": t0, "end": t1}) + "\n")


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


class _Observer:
    """Counts taken from a wrapped call: ``enter`` returns a token for ``exit``."""

    def __init__(self, exit, enter=None):
        self.exit = exit
        self.enter = enter or (lambda tracer: None)


def _ball(t, args, kwargs, frag, _):
    t.add("ball_vertices", len(frag))
    t.add("ball_new", len(frag) - 1)
    t.add("ball_darts", sum(len(d) for d in frag.darts if d is not None))


def _components(t, args, kwargs, rep, _):
    t.add("components_tuples", rep.total_tuples)
    t.add("components_generating", rep.generating_count)
    t.add("components_below" if rep.total_tuples <= workloads.COMPONENTS_SWITCH else "components_above", 1)


def _closed_walks(t, args, kwargs, counts, vertices_before):
    # one DP step per walk length per vertex of the ball the walks run on
    t.add("walk_dp_steps", (len(counts) - 1) * (t.counts.get("ball_vertices", 0) - vertices_before))


def _sample(t, args, kwargs, result, attempts_before):
    t.add("samples_accepted", 1)
    t.add("sample_attempts", t.acc.get("groups.is_generating", [0, 0])[1] - attempts_before)


OBSERVERS = {
    "explore.ball": _Observer(_ball),
    "explore.components": _Observer(_components),
    "tame.aut_group": _Observer(lambda t, a, k, act, _: t.add("aut_order", act.order)),
    "amenability.closed_walks": _Observer(_closed_walks, lambda t: t.counts.get("ball_vertices", 0)),
    "explore.to_jsonl": _Observer(lambda t, a, k, text, _: t.add("export_bytes", len(text))),
    "explore.to_dot": _Observer(lambda t, a, k, text, _: t.add("export_bytes", len(text))),
    "explore.fragment_from_jsonl": _Observer(
        lambda t, a, k, frag, _: t.add("import_bytes", len(a[2] if len(a) > 2 else k["text"]))),
    "covering.verify_star_bijection": _Observer(
        lambda t, a, k, rep, _: t.add("star_checks", rep.checked * rep.moves)),
    "covering.random_generating_tuple": _Observer(
        _sample, lambda t: t.acc.get("groups.is_generating", [0, 0])[1]),
    "covering.verify_surjectivity": _Observer(lambda t, a, k, lift, _: t.add("lifted", lift.lifted)),
    "forest.verify_forest": _Observer(lambda t, a, k, rep, _: t.add("vertices_checked", rep.vertices_checked)),
    "explore.euclid_reduce": _Observer(lambda t, a, k, word, _: t.add("euclid_word_moves", len(word))),
}
