"""Wrappers installed where the package looks names up, then restored.

``train.py`` binds ``ftmixer_forward``, ``iter_batches`` and ``evaluate``
as module globals; ``model.py`` and ``loss_metrics.py`` reach ``spectral.*``
and ``diffarray.*`` through module attributes. A wrapper therefore replaces
the attribute on the module (or class) that holds it, for as long as a
:class:`Patches` context is open. A missing name raises at install time,
so a renamed function fails the benchmark instead of reporting zeros.
"""

from __future__ import annotations

import statistics
from time import perf_counter


class TraceError(RuntimeError):
    """A wrapped name is missing, or a traced layer recorded nothing."""


class Patches:
    """Replace attributes on modules or classes; restore them on exit."""

    def __init__(self):
        self._saved = []

    def install(self, owner, name: str, make) -> None:
        if name not in vars(owner):
            raise TraceError(f"cannot trace {owner.__name__}.{name}: no such attribute")
        original = vars(owner)[name]
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)
        return False


class StepClock:
    """One timestamp per batch drawn from ``iter_batches``.

    The gap between consecutive draws is one step of the consumer loop
    (the last gap ends when the generator is exhausted). Each
    ``iter_batches`` call is one stream of gaps; streams drawn inside
    ``evaluate`` go to ``eval_streams``, all others to ``train_streams``.
    """

    def __init__(self):
        self.train_streams: list[list[float]] = []
        self.eval_streams: list[list[float]] = []
        self._in_eval = 0

    def install(self, patches: Patches, train_mod) -> None:
        patches.install(train_mod, "iter_batches", self._wrap_iter)
        patches.install(train_mod, "evaluate", self._wrap_evaluate)

    def _wrap_iter(self, original):
        def iter_batches(*args, **kwargs):
            gaps: list[float] = []
            (self.eval_streams if self._in_eval else self.train_streams).append(gaps)
            last = None
            for batch in original(*args, **kwargs):
                now = perf_counter()
                if last is not None:
                    gaps.append(now - last)
                last = now
                yield batch
            if last is not None:
                gaps.append(perf_counter() - last)

        return iter_batches

    def _wrap_evaluate(self, original):
        def evaluate(*args, **kwargs):
            self._in_eval += 1
            try:
                return original(*args, **kwargs)
            finally:
                self._in_eval -= 1

        return evaluate


class Tracer:
    """Spans (name, parent, start, end) and counts recorded from wrappers.

    Counts are only taken while a ``model.ftmixer_forward`` span is open,
    so they read per forward pass.
    """

    FORWARD = "model.ftmixer_forward"

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.forwards = 0
        self._stack: list[int] = []
        self._open_forwards = 0

    def take(self) -> tuple[list[list], dict[str, int], int]:
        """Return and clear what was recorded so far."""
        taken = (self.spans, self.counts, self.forwards)
        self.spans, self.counts, self.forwards = [], {}, 0
        self._stack = []
        return taken

    def span(self, name: str):
        def make(original):
            def wrapper(*args, **kwargs):
                idx = len(self.spans)
                record = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0]
                self.spans.append(record)
                self._stack.append(idx)
                forward = name == self.FORWARD
                if forward:
                    self._open_forwards += 1
                    self.forwards += 1
                start = perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    record[2], record[3] = start, perf_counter()
                    self._stack.pop()
                    if forward:
                        self._open_forwards -= 1

            return wrapper

        return make

    def count(self, name: str):
        def make(original):
            def wrapper(*args, **kwargs):
                if self._open_forwards:
                    self.counts[name] = self.counts.get(name, 0) + 1
                return original(*args, **kwargs)

            return wrapper

        return make

    def install(self, patches: Patches, mods: dict) -> None:
        """Wrap every traced layer; ``mods`` maps short module names to modules."""
        data, model, train = mods["data"], mods["model"], mods["train"]
        loss_metrics, spectral, da = mods["loss_metrics"], mods["spectral"], mods["diffarray"]
        for owner, name in (
            (data, "load_csv"),
            (data, "prepare"),
            (data, "gather_batch"),
            (model, "revin_normalize"),
            (model, "fcc_forward"),
            (model, "wfc_forward"),
            (model, "ds_conv"),
            (loss_metrics, "dual_domain_loss"),
            (da, "backward"),
            (da, "clip_global_norm"),
            (da, "adam_step"),
            (da, "save_arrays"),
            (da, "load_arrays"),
        ):
            patches.install(owner, name, self.span(f"{owner.__name__.split('.')[-1]}.{name}"))
        # the forward is looked up in model by the benchmark and in train by train()
        patches.install(model, "ftmixer_forward", self.span(self.FORWARD))
        patches.install(train, "ftmixer_forward", self.span(self.FORWARD))
        patches.install(train, "evaluate", self.span("train.evaluate"))
        patches.install(spectral, "dct", self.count("spectral.dct_calls"))
        patches.install(spectral, "idct", self.count("spectral.idct_calls"))
        patches.install(da.DiffArray, "__init__", self.count("diffarray.arrays_per_forward"))


# ---------------------------------------------------------------------------
# reading spans


def _duration(span) -> float:
    return span[3] - span[2]


def _ancestors(spans, idx) -> set[str]:
    names = set()
    parent = spans[idx][1]
    while parent >= 0:
        names.add(spans[parent][0])
        parent = spans[parent][1]
    return names


def median_of(values, what: str) -> float:
    values = list(values)
    if not values:
        raise TraceError(f"traced run recorded no {what}")
    return statistics.median(values)


def durations(spans, name: str, keep=None) -> list[float]:
    """Durations of spans called ``name``; ``keep(ancestor_names)`` filters."""
    return [
        _duration(s)
        for i, s in enumerate(spans)
        if s[0] == name and (keep is None or keep(_ancestors(spans, i)))
    ]


def forward_breakdown(spans, keep) -> dict[str, list[float]]:
    """Per kept forward: summed time of each direct child block, plus self time."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        children.setdefault(s[1], []).append(i)
    out: dict[str, list[float]] = {}
    for i, s in enumerate(spans):
        if s[0] != Tracer.FORWARD or not keep(_ancestors(spans, i)):
            continue
        sums: dict[str, float] = {}
        for c in children.get(i, []):
            sums[spans[c][0]] = sums.get(spans[c][0], 0.0) + _duration(spans[c])
        for name, total in sums.items():
            out.setdefault(name, []).append(total)
        out.setdefault("self", []).append(_duration(s) - sum(sums.values()))
    return out
