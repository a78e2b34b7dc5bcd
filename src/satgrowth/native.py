"""Build-on-first-use loaders for the compiled kernels.

Three C sources ship with the package: `dpll_kernel.c`, the DPLL layer's
random streams (`load()`: the search loop, its batch of Monte Carlo leaf
counts and the random instance generator, read through `solve()`,
`leaf_counts()` and `generate()`), `annealed_kernel.c`, the annealed chain's
shift-and-add passes (`load_annealed()`), and `oracle_kernel.c`, the exact
oracle's closure walk (`load_oracle()`, read through `closure()`).  Each is compiled with the
system gcc, the first time a process asks for it, into a per-user cache
directory ($XDG_CACHE_HOME/satgrowth, else ~/.cache/satgrowth) under a name
keyed by a hash of the source and the compile command, and loaded with
ctypes.  gcc writes a temporary file in the cache directory that is then
published with os.replace, so processes compiling at the same time never
load a half-written library.  A build is never removed: each source version
keeps its own small library, so checkouts of different sources can share one
cache, and deleting the cache directory clears it.  load_annealed() binds
the annealed kernel's AVX2 entry points when the CPU has AVX2, else its
baseline ones, with the usable CPU count as the passes' thread count; all
give the same bits.  When no compiler is found, the compile fails or the
cache is not writable, the loader returns None after one warning per process
and kernel, and the caller runs its Python reference code.

usable_cpus() is the one count of the CPUs this process may run on: it
sizes the annealed passes' threads and caps run_ensemble's process pool.
"""

import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import tempfile
import warnings
from array import array
from pathlib import Path
from typing import Callable, List, NamedTuple

SOURCE = Path(__file__).with_name("dpll_kernel.c")
ANNEALED_SOURCE = Path(__file__).with_name("annealed_kernel.c")
ORACLE_SOURCE = Path(__file__).with_name("oracle_kernel.c")
CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off", "-pthread")

HEURISTIC_CODES = {"UC": 0, "GUC": 1, "SC1": 2}
# sg_solve and sg_leaf_counts return codes
_ERRORS = {-1: (MemoryError, "DPLL kernel out of memory"),
           -2: (AssertionError, "unit clause without a free literal"),
           -3: (AssertionError, "solver produced a non-satisfying assignment")}


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    reports one, else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _compiler():
    """Path of the C compiler, or None."""
    return shutil.which("gcc")


def _cache_dir() -> Path:
    """Where compiled kernels live; Path.home() raises RuntimeError when
    there is no home directory."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(Path.home(), ".cache")
    return Path(base) / "satgrowth"


def _build(cc: str, source_path: Path) -> Path:
    """Path of the compiled kernel, compiling it if the cache lacks it."""
    source = source_path.read_bytes()
    key = hashlib.blake2b(source + repr((os.path.basename(cc),) + CFLAGS).encode(),
                          digest_size=8).hexdigest()
    target = _cache_dir() / f"{source_path.stem}-{key}.so"
    if target.exists():
        return target
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=f".{source_path.stem}-",
                               suffix=".so")
    os.close(fd)
    try:
        subprocess.run([cc, *CFLAGS, "-o", tmp, str(source_path)], check=True,
                       capture_output=True, text=True, timeout=300)
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return target


def _open(source_path: Path, fallback: str):
    """The kernel built from `source_path` as a ctypes library, or None after
    a warning that names the `fallback` code path."""
    cc = _compiler()
    if cc is None:
        return _fallback(fallback, "no C compiler (gcc) found")
    try:
        return ctypes.CDLL(str(_build(cc, source_path)))
    except subprocess.CalledProcessError as exc:
        return _fallback(fallback, f"compiling {source_path.name} failed: "
                                   f"{exc.stderr.strip()}")
    except (OSError, RuntimeError, subprocess.SubprocessError) as exc:
        return _fallback(fallback, f"cannot build or load {source_path.name}: {exc}")


@functools.lru_cache(maxsize=None)
def load():
    """The loaded DPLL kernel library, or None when it cannot be built here."""
    lib = _open(SOURCE, "the Python DPLL search, Monte Carlo and instance "
                        "generator loops")
    if lib is None:
        return None
    i32, ptr = ctypes.c_int32, ctypes.c_void_p
    lib.sg_solve.argtypes = [
        i32, i32, ptr, ptr, i32, ctypes.c_uint64, i32,
        ctypes.POINTER(ctypes.c_int64), ctypes.c_char_p,
        ctypes.POINTER(ctypes.POINTER(ctypes.c_int32))]
    lib.sg_solve.restype = ctypes.c_int
    lib.sg_leaf_counts.argtypes = [i32, i32, ptr, ptr, i32, i32, ptr, ptr]
    lib.sg_leaf_counts.restype = ctypes.c_int
    lib.sg_generate.argtypes = [i32, ctypes.c_int64, ctypes.c_int64, ptr, i32,
                                ptr, ptr]
    lib.sg_generate.restype = None
    lib.sg_free.argtypes = [ctypes.c_void_p]
    lib.sg_free.restype = None
    lib.sg_random.argtypes = [ctypes.c_uint64, ctypes.c_int32,
                              ctypes.POINTER(ctypes.c_double)]
    lib.sg_random.restype = None
    return lib


class AnnealedPasses(NamedTuple):
    """The annealed kernel's two entry points, as bound ctypes functions,
    and the most threads a pass may split its rows across."""
    thin: Callable
    convert: Callable
    avx2: bool
    threads: int


def _annealed_passes(lib, avx2: bool, threads: int) -> AnnealedPasses:
    """The AVX2 or the baseline entry pair of the annealed kernel `lib`, run
    on up to `threads` threads."""
    suffix = "_avx2" if avx2 else ""
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    thin = getattr(lib, "sg_thin" + suffix)
    thin.argtypes = [ptr, ptr, i64, i64, i64, ptr, i64, i64]
    thin.restype = None
    convert = getattr(lib, "sg_convert" + suffix)
    convert.argtypes = [ptr, ptr, i64, i64, i64, i64, i64, ptr, i64, i64]
    convert.restype = None
    return AnnealedPasses(thin, convert, avx2, threads)


@functools.lru_cache(maxsize=None)
def load_annealed():
    """The annealed-pass kernel's entry points (AnnealedPasses), the AVX2
    pair when the CPU has AVX2, on up to usable_cpus() threads, or None when
    the kernel cannot be built here."""
    lib = _open(ANNEALED_SOURCE, "the numpy annealed passes")
    if lib is None:
        return None
    lib.sg_has_avx2.argtypes = []
    lib.sg_has_avx2.restype = ctypes.c_int
    return _annealed_passes(lib, bool(lib.sg_has_avx2()), usable_cpus())


class _Closure(ctypes.Structure):
    """sg_closure_t: the walk's flat output arrays, owned by the kernel."""
    _fields_ = [("n_states", ctypes.c_int64), ("nnz", ctypes.c_int64),
                ("wbase", ctypes.c_int64),
                ("state", ctypes.POINTER(ctypes.c_int64)),
                ("violating", ctypes.c_void_p),
                ("offset", ctypes.POINTER(ctypes.c_int64)),
                ("succ", ctypes.POINTER(ctypes.c_int64)),
                ("weight", ctypes.POINTER(ctypes.c_int64))]


@functools.lru_cache(maxsize=None)
def load_oracle():
    """The loaded exact-oracle closure kernel, or None when it cannot be
    built here."""
    lib = _open(ORACLE_SOURCE, "the Python closure walk")
    if lib is None:
        return None
    lib.sg_closure.argtypes = [ctypes.c_int32, ctypes.c_int32, ctypes.c_void_p,
                               ctypes.c_void_p, ctypes.c_int32,
                               ctypes.POINTER(_Closure)]
    lib.sg_closure.restype = ctypes.c_int
    lib.sg_closure_free.argtypes = [ctypes.POINTER(_Closure)]
    lib.sg_closure_free.restype = None
    return lib


def _fallback(code_path: str, reason: str):
    warnings.warn(f"satgrowth: using {code_path}; {reason}",
                  RuntimeWarning, stacklevel=4)
    return None


def _check(rc: int) -> None:
    """Raise the exception of a nonzero DPLL kernel return code."""
    if rc:
        exc_type, message = _ERRORS.get(rc, (RuntimeError, f"DPLL kernel returned {rc}"))
        raise exc_type(message)


def solve(lib, n_vars: int, lits, start, heuristic: str, mixed_seed: int,
          record_cloud: bool):
    """One kernel search.  `lits` and `start` are array('i') buffers of the
    packed literals and the m + 1 clause offsets; returns (sat, q_splits,
    b_leaves, g, cloud, assignment) with g and the cloud entries as
    (assigned, C2, C3) triples, g None without a g-node, and assignment the
    n_vars value bytes of a sat result."""
    out = (ctypes.c_int64 * 6)()
    assignment = ctypes.create_string_buffer(n_vars)
    cloud = ctypes.POINTER(ctypes.c_int32)()
    rc = lib.sg_solve(n_vars, len(start) - 1, lits.buffer_info()[0],
                      start.buffer_info()[0], HEURISTIC_CODES[heuristic],
                      mixed_seed, record_cloud, out, assignment, ctypes.byref(cloud))
    _check(rc)
    sat, q_splits, b_leaves, *g = out
    triples = []
    if cloud:
        flat = cloud[:3 * q_splits]
        lib.sg_free(cloud)
        triples = [tuple(flat[i:i + 3]) for i in range(0, len(flat), 3)]
    return (bool(sat), q_splits, b_leaves, tuple(g) if g[0] >= 0 else None,
            triples, assignment.raw if sat else None)


def leaf_counts(lib, n_vars: int, lits, start, heuristic: str,
                mixed_seeds: List[int]) -> List[int]:
    """b_leaves of one cloud-free kernel search per already mixed seed, in
    one call; `lits` and `start` as for solve."""
    seeds = array("Q", mixed_seeds)
    counts = array("q", bytes(8 * len(seeds)))
    _check(lib.sg_leaf_counts(n_vars, len(start) - 1, lits.buffer_info()[0],
                              start.buffer_info()[0], HEURISTIC_CODES[heuristic],
                              len(seeds), seeds.buffer_info()[0],
                              counts.buffer_info()[0]))
    return counts.tolist()


def generate(lib, n_vars: int, n_2clauses: int, n_3clauses: int, seed: int):
    """The (lits, starts) array('i') buffers that
    cnf.generate_random_instance draws for an int `seed`: random.Random(seed)
    reads the 32-bit words of abs(seed), least significant first, and so does
    the kernel."""
    seed = abs(seed)
    key = array("I", [(seed >> s) & 0xFFFFFFFF
                      for s in range(0, max(seed.bit_length(), 1), 32)])
    lits = array("i", bytes(4 * (2 * n_2clauses + 3 * n_3clauses)))
    starts = array("i", bytes(4 * (n_2clauses + n_3clauses + 1)))
    lib.sg_generate(n_vars, n_2clauses, n_3clauses, key.buffer_info()[0],
                    len(key), lits.buffer_info()[0], starts.buffer_info()[0])
    return lits, starts


def closure(lib, n_vars: int, lits, start, heuristic: str):
    """The forward closure of the all-undetermined state, walked by the
    oracle kernel.  `lits` and `start` are the instance's array('i')
    buffers.  Returns (states, violating, offsets, succ, weights, wbase):
    the columns' packed state indices in walk order, one byte per column
    (nonzero where the state violates a clause), the n + 1 offsets of the
    columns' entries, and each entry's successor index and weight
    numerator * wbase + denominator."""
    out = _Closure()
    try:
        if lib.sg_closure(n_vars, len(start) - 1, lits.buffer_info()[0],
                          start.buffer_info()[0], HEURISTIC_CODES[heuristic],
                          ctypes.byref(out)):
            raise MemoryError("oracle kernel out of memory")
        n, nnz = out.n_states, out.nnz
        return (out.state[:n], ctypes.string_at(out.violating, n),
                out.offset[:n + 1], out.succ[:nnz], out.weight[:nnz], out.wbase)
    finally:
        lib.sg_closure_free(ctypes.byref(out))
