"""Spans and counts around the calls into each codesync module.

``Tracer.install`` wraps, from outside the package, every public function of
every codesync module on *every* module binding of it (modules import
functions directly, so ``experiments.shortest_incompletable`` is wrapped as
well as ``completeness.shortest_incompletable``).  Each call of a wrapped
function records a span (id, parent id, name, start, end, self step calls,
self ``Word`` constructions).  The hottest leaf calls are counted rather than
spanned, so memory stays bounded on deep searches:

* ``Automaton.step_letter`` / ``step_letter_back``: step calls, charged to the
  innermost open span, and the distinct result masks of each operation;
* ``Word.__post_init__`` and ``Automaton.__post_init__``: constructions.

The subset helpers ``step_forward``, ``step_backward``, ``mask_from_states``
and ``states_from_mask`` are left unwrapped: their work shows as step calls.

Spans are kept in memory and written out by the caller at the end.  Layer
self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter, defaultdict
from time import perf_counter

MODULES = (
    "languages",
    "automata",
    "completeness",
    "synchrony",
    "reduction",
    "encoding",
    "experiments",
    "cli",
)
UNWRAPPED = {"step_forward", "step_backward", "mask_from_states", "states_from_mask"}

# frame slots
_NAME, _START, _CHILD, _STEPS, _WORDS, _ID = range(6)


class Tracer:
    def __init__(self):
        self.active = False
        self.spans: list[tuple] = []
        self.stack: list[list] = []
        self.calls: Counter = Counter()
        self.incl_s: defaultdict = defaultdict(float)
        self.incl_steps: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.op_masks: set = set()
        self._next_id = 0
        self._originals: dict = {}

    # -- operations ---------------------------------------------------------

    def begin_op(self, label: str) -> None:
        self.op_masks = set()
        self.stack.append(self._frame("op:" + label))
        self.active = True

    def end_op(self) -> None:
        self.active = False
        frame = self.stack.pop()
        self._close(frame, None, perf_counter())
        self.counts["step_distinct"] += len(self.op_masks)
        self.op_masks = set()

    # -- spans --------------------------------------------------------------

    def _frame(self, name: str) -> list:
        self._next_id += 1
        return [name, perf_counter(), 0.0, 0, 0, self._next_id]

    def _close(self, frame: list, parent, end: float) -> None:
        name = frame[_NAME]
        duration = end - frame[_START]
        self.spans.append((
            frame[_ID], parent[_ID] if parent else 0, name, frame[_START], end,
            frame[_STEPS], frame[_WORDS],
        ))
        self.calls[name] += 1
        if parent is not None:  # an operation's own time is the benchmark's, not a layer's
            self.self_s[name.split(".", 1)[0]] += duration - frame[_CHILD]
            parent[_CHILD] += duration
            parent[_STEPS] += frame[_STEPS]
            parent[_WORDS] += frame[_WORDS]
        self.incl_s[name] += duration
        self.incl_steps[name] += frame[_STEPS]

    def _span(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = tracer.stack[-1]
            frame = tracer._frame(name)
            tracer.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.stack.pop()
                tracer._close(frame, parent, end)
            tracer._account(name, args, kwargs, result)
            return result

        return wrapper

    def _span_generator(self, fn, name: str):
        """Each resumption of the generator is one span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._account(name, args, kwargs, None)
            inner = fn(*args, **kwargs)
            while True:
                if not tracer.active:
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    yield item
                    continue
                parent = tracer.stack[-1]
                frame = tracer._frame(name)
                tracer.stack.append(frame)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    end = perf_counter()
                    tracer.stack.pop()
                    tracer._close(frame, parent, end)
                tracer.counts[name + ".yields"] += 1
                yield item

        return wrapper

    def _account(self, name: str, args, kwargs, result) -> None:
        """Counts that need the arguments or the result of a call."""
        if not self.active:
            return
        if name == "experiments.enumerate_class_languages":
            bound = inspect.signature(self._originals[name]).bind(*args, **kwargs)
            n, d = bound.arguments["n"], bound.arguments["d"]
            pool = sum(d ** k for k in range(1, n + 1))
            self.counts["candidates"] += 2 ** pool - 1
        elif name in ("experiments.estimate_R", "experiments.estimate_C"):
            self.counts["instances"] += result.instance_count
            self.counts["inconclusive"] += result.inconclusive_count

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        import codesync
        from codesync.automata import Automaton
        from codesync.languages import Word

        modules = {m: importlib.import_module("codesync." + m) for m in MODULES}
        wrappers = {}
        for layer, module in modules.items():
            for attr, fn in vars(module).items():
                if (
                    attr.startswith("_")
                    or attr in UNWRAPPED
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                ):
                    continue
                name = f"{layer}.{attr}"
                self._originals[name] = fn
                if inspect.isgeneratorfunction(fn):
                    wrappers[fn] = self._span_generator(fn, name)
                else:
                    wrappers[fn] = self._span(fn, name)
        for module in [codesync, *modules.values()]:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])

        tracer = self
        step, step_back = Automaton.step_letter, Automaton.step_letter_back

        def step_letter(automaton, mask, a):
            out = step(automaton, mask, a)
            if tracer.active:
                tracer.stack[-1][_STEPS] += 1
                tracer.op_masks.add(out)
            return out

        def step_letter_back(automaton, mask, a):
            out = step_back(automaton, mask, a)
            if tracer.active:
                tracer.stack[-1][_STEPS] += 1
                tracer.op_masks.add(out)
            return out

        word_init, automaton_init = Word.__post_init__, Automaton.__post_init__

        def word_post_init(word):
            if tracer.active:
                tracer.stack[-1][_WORDS] += 1
            word_init(word)

        def automaton_post_init(automaton):
            if tracer.active:
                tracer.counts["automaton_new"] += 1
            automaton_init(automaton)

        Automaton.step_letter = step_letter
        Automaton.step_letter_back = step_letter_back
        Automaton.__post_init__ = automaton_post_init
        Word.__post_init__ = word_post_init

    # -- results ------------------------------------------------------------

    def total_steps(self) -> int:
        return sum(s[5] for s in self.spans if s[1] == 0)

    def total_words(self) -> int:
        return sum(s[6] for s in self.spans if s[1] == 0)

    def layer_metrics(self, instances: int) -> dict:
        """Per-layer counts and busy times of everything traced so far."""
        c, t = self.calls, self.incl_s
        steps = self.total_steps()
        candidates = self.counts["candidates"]
        enum = "experiments.enumerate_class_languages"
        out = {
            "automata.step_calls": steps,
            "automata.step_distinct": self.counts["step_distinct"],
            "automata.step_useful_ratio": self.counts["step_distinct"] / steps if steps else 0.0,
            "automata.flower_calls": c["automata.flower_automaton"],
            "automata.flower_per_instance": c["automata.flower_automaton"] / max(instances, 1),
            "automata.flower_s": t["automata.flower_automaton"],
            "automata.automaton_new": self.counts["automaton_new"],
            "automata.determinize_s": t["automata.determinize_minimize"],
            "languages.parse_calls": c["languages.parse_language"],
            "languages.parse_s": t["languages.parse_language"],
            "languages.word_new": self.total_words(),
            "languages.is_code_calls": c["languages.is_code"],
            "languages.is_code_s": t["languages.is_code"],
            "languages.kleene_s": t["languages.kleene_membership"],
            "completeness.incompletable_calls": c["completeness.shortest_incompletable"],
            "completeness.incompletable_s": t["completeness.shortest_incompletable"],
            "completeness.find_completion_s": t["completeness.find_completion"],
            "synchrony.pair_search_calls": c["synchrony.shortest_sync_pair"],
            "synchrony.pair_search_s": t["synchrony.shortest_sync_pair"],
            "synchrony.pair_check_s": t["synchrony.is_sync_pair"],
            "synchrony.sync_code_s": t["synchrony.is_synchronizing_code"],
            "synchrony.reset_s": t["synchrony.sync_word_shortest"],
            "reduction.pipeline_s": t["reduction.synchronizing_pair_via_reduction"],
            "reduction.half_s": t["reduction.half_reduction"],
            "reduction.min_marked_s": t["reduction.shortest_incompletable_min_marked"],
            "reduction.min_marked_steps": self.incl_steps["reduction.shortest_incompletable_min_marked"],
            "encoding.road_color_s": t["encoding.road_colored_sync_code"],
            "encoding.to_binary_s": t["encoding.reduce_sync_to_binary"]
            + t["encoding.reduce_incompletable_to_binary"],
            "experiments.candidates": candidates,
            "experiments.instances": self.counts["instances"],
            "experiments.yield_ratio": self.counts[enum + ".yields"] / candidates if candidates else 0.0,
            "experiments.enumerate_s": t[enum],
            "experiments.inconclusive": self.counts["inconclusive"],
            "cli.verb_s": t["cli.main"],
        }
        for layer in MODULES:
            out[f"{layer}.self_s"] = self.self_s[layer]
        return out
