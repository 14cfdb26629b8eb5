"""The sweep registry, task generation and execution.

SWEEPS is the one table behind `scv verify`: each entry gives a subcommand's
help text, its options (converter, range, default) and the grid function
that turns the option values into tasks, and COMMON_OPTIONS and CONFIG are
the flags every sweep takes after its own. KINDS maps each task kind, the
check_name of its records, to the names of its module and verifier, which
takes the task's parameters as they are and prints them unchanged in its
record. Importing this module loads no scv module but the package
(PRIME_LIMIT, UsageError) and no typing, pathlib or re; each grid imports
its verifier module and the arithmetic it reads as it is built, so a sweep
loads only the code it runs. Adding a sweep means one SWEEPS entry plus its
KINDS entries.

A task is a (kind, ((key, value), ...)) pair describing one pure check, so
grids can run one by one as their results are read or as contiguous slices
in forked workers with identical results, in task order either way. Every
grid yields its tasks in the report's order (report.check_sort_key), so a
run writes each record as it comes and never sorts.
"""

from __future__ import annotations

import marshal
import os
import sys
from collections import namedtuple
from collections.abc import Collection, Iterable, Iterator
from functools import cache, partial
from importlib import import_module
from itertools import product

from . import PRIME_LIMIT, UsageError

TYPE_CHECKING = False  # as typing.TYPE_CHECKING, without loading typing
if TYPE_CHECKING:
    from .report import CheckResult

Task = tuple[str, tuple[tuple[str, object], ...]]

DEFAULT_BB1_X = ("0", "1", "2", "-1/2", "-1/3", "1/3", "2/5")

# n stays in the window 0..BB4_N_MAX where the tests prove the bb4 recurrence
# for every m >= 0 (tests/test_identities.py).
BB4_N_MAX = 25


def _task(kind: str, **kwargs: object) -> Task:
    return (kind, tuple(sorted(kwargs.items())))


@cache
def _load(module: str):
    return import_module(f".{module}", __package__)


# task kind -> (module, verifier), looked up by name at each task, so a replaced verifier runs
KINDS: dict[str, tuple[str, str]] = {
    "rv": ("congruences", "verify_rv"),
    "lemma2p": ("congruences", "verify_lemma_2p"),
    "sun-p4": ("congruences", "verify_sun_p4"),
    "guo-bb1": ("congruences", "verify_guo_bb1"),
    "cc5": ("congruences", "verify_cc5"),
    "cc7": ("congruences", "verify_cc7"),
    "cc8-fact": ("congruences", "verify_cc8_fact"),
    "cc9": ("congruences", "verify_cc9"),
    "cc10": ("congruences", "verify_cc10"),
    "cc1": ("identities", "check_cc1"),
    "cc4": ("identities", "check_cc4"),
    "liu26": ("identities", "check_liu26"),
    "telescope": ("identities", "check_telescope"),
    "bb2": ("identities", "check_bb2"),
    "bb4-direct": ("identities", "check_bb4_direct"),
    "bb4-recurrence": ("identities", "check_bb4_recurrence"),
    "bb4-initial": ("identities", "check_bb4_initial"),
    "integer-valued": ("integrality", "verify_integer_valued"),
    "schmidt-divisibility": ("integrality", "verify_schmidt_divisibility"),
}


def execute_task(task: Task) -> CheckResult:
    """Run one check; an exception inside it becomes a failed `error:` record."""
    kind, kv = task
    params = dict(kv)
    module, verifier = KINDS[kind]
    try:  # the first check of a kind imports its module, so an import error is its record too
        return getattr(_load(module), verifier)(**params)
    except Exception as exc:  # a raising check is a reported failure, not a crash
        from .exact_arith import rat_str
        from .report import CheckResult

        fraction = getattr(sys.modules.get("fractions"), "Fraction", ())  # () if no Fraction exists
        return CheckResult(
            check_name=kind,
            # a Fraction prints as each verifier prints it, so a forked worker can send it
            parameters={k: rat_str(v) if isinstance(v, fraction) else v for k, v in params.items()},
            passed=False,
            lhs_witness=f"error: {type(exc).__name__}: {exc}",
            rhs_witness="",
            modulus="error",
        )


def run_tasks(tasks: Iterable[Task], jobs: int = 1) -> Iterator[CheckResult]:
    """Results in task order, on at most `jobs` workers (never more than tasks or usable CPUs).

    On one worker this is map(execute_task, tasks), so no task or result is held. On more,
    the tasks are cut into one contiguous slice per worker, in the grid's order, the
    report's, so a slice that starts past a sweep's first prime (guo-bb1 goes p by p) walks
    each of its points from k = 0 again. This process forks a child for each slice but the
    last, runs the last itself, then reads each child's records from a pipe as marshal data
    of plain tuples, so a forked record's values must be of types marshal writes, as every
    SWEEPS grid's are; once all are in, it empties its caches (clear_caches).
    Forking a process that runs other threads is unsafe: such a caller passes jobs=1.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(jobs, cpus or 1) if hasattr(os, "fork") else 1
    if workers > 1:  # slices are cut from the list
        tasks = list(tasks)
        workers = min(workers, len(tasks))
    if workers <= 1:
        return map(execute_task, tasks)
    cuts = [len(tasks) * i // workers for i in range(workers + 1)]
    pipes, pids, statuses, sent = [], [], [], None
    try:
        for lo, hi in zip(cuts, cuts[1:-1]):
            read, write = os.pipe()
            pipes.append(open(read, "rb"))
            with open(write, "wb") as out:
                if (pid := os.fork()) == 0:  # the worker never returns into its parent's code
                    code = 1
                    try:
                        marshal.dump([tuple(execute_task(t)) for t in tasks[lo:hi]], out)
                        out.close()  # os._exit does not flush
                        code = 0
                    except BaseException:
                        sys.excepthook(*sys.exc_info())
                    finally:
                        os._exit(code)
            pids.append(pid)
        own = [execute_task(t) for t in tasks[cuts[-2]:]]
        sent = [pipe.read() for pipe in pipes]
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            if sent is None:  # stopped before every slice arrived: stop the workers left
                import signal

                os.kill(pid, signal.SIGKILL)
            statuses.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    clear_caches()
    from .report import CheckResult

    results: list[CheckResult] = []
    for lo, hi, status, data in zip(cuts, cuts[1:], statuses, sent):
        where = f"the worker on tasks {lo}..{hi - 1} of {len(tasks)}"
        if status:
            raise RuntimeError(f"{where} exited with status {status}")
        try:
            results += [CheckResult(*record) for record in marshal.loads(data)]
        except Exception as exc:
            raise RuntimeError(f"{where} sent a result that does not decode: {exc!r}") from None
    return iter(results + own)


def clear_caches() -> None:
    """Empty every cache of every loaded scv module: the lru caches, the column_reader rows,
    the walk cursors and _load. run_tasks on more than one worker calls it once every record
    is in, so a report built from those records reads none of them."""
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == __package__:
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


# Each grid loads its verifier module as run_tasks reads it, before any
# fork, so --jobs workers inherit the module instead of each importing it.
def _families(kind: str, pmax: int) -> Iterator[Task]:
    from .exact_arith import primes_in_range
    from .sequences import RV_FAMILIES

    _load("congruences")
    for family, p in product(RV_FAMILIES, primes_in_range(5, pmax)):
        yield _task(kind, family=family, p=p)


def _guo_bb1(pmax: int, x: tuple[str, ...]) -> Iterator[Task]:
    # p by p, and the points (canonical texts) by text within p: every point's walks stay
    # in their caches (sequences._point_walks) from one p to the next
    from .exact_arith import primes_in_range

    _load("congruences")
    for p, one in product(primes_in_range(3, pmax), sorted(x)):
        yield _task("guo-bb1", x=one, p=p)


# `scv verify cc --which` value -> the task kind (and check name) it sweeps
CC_KINDS = {"cc5": "cc5", "cc7": "cc7", "cc8": "cc8-fact", "cc9": "cc9", "cc10": "cc10"}


def _cc(which: str, pmax: int) -> Iterator[Task]:
    # kind by kind in name order, then p by p: within a kind the cc row cursor and each x's
    # walks only move forward, so each kind walks each of them once
    from .exact_arith import primes_in_range

    kinds = sorted(CC_KINDS.values()) if which == "all" else (CC_KINDS[which],)
    supported_x = sorted(_load("congruences").SUPPORTED_X)
    for kind, p in product(kinds, primes_in_range(5, pmax)):
        if kind == "cc7":
            yield from (_task("cc7", s=s, p=p) for s in range(p, 2 * p - 1))
        else:
            yield from (_task(kind, x=x, p=p) for x in supported_x)


def _bb4_recurrence(top: int) -> Iterator[Task]:
    for m, n in product(range(4), range(BB4_N_MAX + 1)):
        yield _task("bb4-initial", m=m, n=n)
    # the two sides of one (m, n) are adjacent, so they share its recurrence coefficients
    for m, n, side in product(range(top + 1), range(BB4_N_MAX + 1), _load("identities").SIDES):
        yield _task("bb4-recurrence", side=side, m=m, n=n)


class Identity(namedtuple("Identity", "default_max grid")):
    """An identity's default --max and its grid: Callable[[int], Iterator[Task]]."""

    __slots__ = ()


IDENTITIES = {
    "cc1": Identity(8, lambda top: (
        _task("cc1", j=j, k=k) for j, k in product(range(top + 1), repeat=2))),
    "cc4": Identity(12, lambda top: (
        _task("cc4", k=k, s=s) for k in range(top + 1) for s in range(2 * k + 1))),
    "liu26": Identity(60, lambda top: (_task("liu26", s=s) for s in range(top + 1))),
    "telescope": Identity(12, lambda top: (_task("telescope", n=n) for n in range(1, top + 1))),
    "bb2": Identity(8, lambda top: (_task("bb2", n=n) for n in range(top + 1))),
    "bb4-direct": Identity(25, lambda top: (
        _task("bb4-direct", m=m, n=n) for m, n in product(range(top + 1), repeat=2))),
    # --max bounds m; n stays in the certified window 0..BB4_N_MAX
    "bb4-recurrence": Identity(40, _bb4_recurrence),
}


def _identity(name: str, max: int | None) -> Iterator[Task]:
    _load("identities")
    for one in sorted(IDENTITIES) if name == "all" else (name,):  # by name, as the report sorts
        yield from IDENTITIES[one].grid(IDENTITIES[one].default_max if max is None else max)


_EPS = {"+1": (1,), "-1": (-1,), "both": (-1, 1)}


def _n_m_eps(kind: str, nmax: int, mmax: int, eps: str) -> Iterator[Task]:
    # n by n within (eps, m): the integer-valued running sum of one (m, eps) then stays in use
    _load("integrality")
    for e, m, n in product(_EPS[eps], range(1, mmax + 1), range(1, nmax + 1)):
        yield _task(kind, n=n, m=m, eps=e)


def _schmidt(nmax: int, mmax: int, eps: str) -> Iterator[Task]:
    # the largest power sum of the grid is at (nmax, mmax); refuse it before any work
    integrality = _load("integrality")
    try:
        integrality.schmidt_term_count(nmax, mmax)
    except integrality.TermLimitExceeded as exc:
        raise UsageError(str(exc))
    return _n_m_eps("schmidt-divisibility", nmax, mmax, eps)


class Option(namedtuple("Option", "name default convert help repeatable", defaults=("", False))):
    """A flag --name taking one value; a repeatable flag collects a tuple of them. The default
    is used as it is; convert takes the text (tuple of texts) to the value, ValueError if bad."""

    __slots__ = ()


def int_option(name: str, default: int | None, least: int, most: int | None = None,
               help: str = "") -> Option:
    span = f"x>={least}" if most is None else f"{least}<=x<={most}"

    def convert(text: str) -> int:
        if not least <= (value := int(text)) <= (value if most is None else most):
            raise UsageError(f"{value} is not in the range {span}")
        return value

    shown = span if default is None else f"default: {default}; {span}"
    return Option(name, default, convert, f"{help} [{shown}]")


def choice_option(name: str, choices: Collection[str], default: str, help: str = "") -> Option:
    def convert(text: str) -> str:
        if text not in choices:
            raise UsageError(f"{text!r} is not one of {', '.join(choices)}")
        return text

    return Option(name, default, convert, f"{help} [default: {default}; {'|'.join(choices)}]")


def _validate_rationals(value: Iterable[str]) -> tuple[str, ...]:
    """Each point in its canonical a/b form, repeats dropped, in first-seen order.

    a and b are read by ratio with int(), whose digit limit refuses a huge point
    before any arithmetic; reducing only shrinks them, so each canonical form parses again.
    """
    from .exact_arith import rat_str, ratio

    canonical = {}
    for item in value:
        try:
            canonical[rat_str(*ratio(item))] = None
        except (ValueError, ZeroDivisionError):
            digits = f" of at most {n} digits" if (n := sys.get_int_max_str_digits()) else ""
            message = f"expected a rational a/b or a of integers{digits}, like -1/2, got {item!r}"
            raise UsageError(message) from None
    return tuple(canonical)


def _pmax(default: int, least: int = 5) -> Option:
    # the cap refuses a PMAX whose prime sieve alone would exhaust memory
    odd = "odd " if least == 3 else ""
    return int_option(
        "pmax", default, least, PRIME_LIMIT, f"Sweep {odd}primes {least} <= p <= PMAX."
    )


_MMAX_EPS = (int_option("mmax", 3, 1), choice_option("eps", _EPS, "both"))


class Sweep(namedtuple("Sweep", "help options grid")):
    """A subcommand's help, options and grid, a Callable[..., Iterator[Task]] of their values
    that yields its tasks in the report's order (report.check_sort_key)."""

    __slots__ = ()


SWEEPS = {
    "rv": Sweep(
        "Hypergeometric partial sums against Legendre symbols, mod p^2.",
        (_pmax(8000),), partial(_families, "rv"),
    ),
    "lemma2p": Sweep(
        "The same sums taken to 2p-1 terms, against their rational constants.",
        (_pmax(4000),), partial(_families, "lemma2p"),
    ),
    "sun-p4": Sweep(
        "Weighted s_k^2 sums against constant * Legendre * p^2, mod p^4.",
        (_pmax(1200),), partial(_families, "sun-p4"),
    ),
    "guo-bb1": Sweep(
        "Mod-p^4 reduction of the weighted s_k^2 sum to a double binomial sum.",
        (_pmax(150, least=3), Option(
            "x", DEFAULT_BB1_X, _validate_rationals,
            "Evaluation point a/b (repeatable). Default: " + " ".join(DEFAULT_BB1_X), True,
        )),
        _guo_bb1,
    ),
    "cc": Sweep(
        "The chain of summation-order, partial-row and valuation checks.",
        (choice_option("which", [*CC_KINDS, "all"], "all", "Which chain step to sweep."),
         _pmax(350)),
        _cc,
    ),
    "identity": Sweep(
        "Exact polynomial and integer identities (coefficient-level equality).",
        (choice_option("name", [*IDENTITIES, "all"], "all", "Which identity to check."),
         int_option("max", None, 0, help="Upper index bound; default depends on the identity.")),
        _identity,
    ),
    "integrality": Sweep(
        "Integer-valuedness of the averaged d^m s^m sums (binomial-basis criterion).",
        (int_option("nmax", 10, 1), *_MMAX_EPS), partial(_n_m_eps, "integer-valued"),
    ),
    "schmidt": Sweep(
        "Divisibility of Schmidt power-sum coefficients, over indeterminates.",
        (int_option("nmax", 6, 1), *_MMAX_EPS), _schmidt,
    ),
}


def _writable(path: str) -> str:
    """Refuse an --out FILE that could not be written, before the sweep runs.

    A FILE that does not exist yet is made in its directory, which must then
    be writable and searchable.
    """
    if not path:
        raise UsageError("'' names no file")
    directory = os.path.dirname(path) or "."  # a FILE with no directory part: the current one
    if not os.path.isdir(directory):
        raise UsageError(f"directory {directory!r} does not exist")
    if os.path.exists(path):
        writable = not os.path.isdir(path) and os.access(path, os.W_OK)
    else:
        writable = os.access(directory, os.W_OK | os.X_OK)
    if not writable:
        raise UsageError(f"{path!r} is a directory or is not writable")
    return path


COMMON_OPTIONS = (
    int_option("jobs", 1, 1, help="Worker processes for the sweep grid."),
    choice_option("format", ("json", "csv", "text"), "text", "Report format."),
    Option("out", None, _writable, "Write the report to FILE instead of stdout."),
)
CONFIG = Option("config", None, str, "key=value file supplying defaults; explicit flags win.")


def load_config(path: str, command: str, options: tuple[Option, ...]) -> dict[str, object]:
    """Read key=value lines as the texts of the command's flags; a repeatable flag takes a,b,..."""
    try:
        with open(path) as f:  # the encoding Path.read_text would use
            text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        cause = exc.strerror if isinstance(exc, OSError) else exc
        raise UsageError(f"Invalid value for '--config': cannot read {path!r}: {cause}") from None
    keys = {option.name: option for option in options}
    values: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in keys:
            raise UsageError(
                f"{path}:{lineno}: {key!r} is not an option of {command}"
                f" (keys: {', '.join(sorted(keys))})"
            )
        values[key] = (
            [x.strip() for x in value.split(",") if x.strip()] if keys[key].repeatable else value
        )
    return values
