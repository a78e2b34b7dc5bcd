"""Build-on-first-use loader of the compiled kernels.

Three C sources ship with the package and build into one library:
`dpll_kernel.c`, the DPLL layer's random streams (the search loop, run
once per seed of a batch through `search()`, and the random instance
generator, read through `generate()`), `annealed_kernel.c`,
the annealed chain's shift-and-add passes (bound as the library's
`passes`), and `oracle_kernel.c`, the exact oracle's closure walk (read
through `closure()`).  The first time a process calls load(), one gcc call compiles
all three into a per-user cache directory ($XDG_CACHE_HOME/satgrowth, else
~/.cache/satgrowth) under a name keyed by a hash of the three sources and
the compile command; ctypes loads the library and load() binds every entry
point.  gcc writes a temporary file in the cache directory that is then
published with os.replace, so processes compiling at the same time never
load a half-written library.  A build is never removed: each version of the
sources keeps its own small library, so checkouts of different sources can
share one cache, and deleting the cache directory clears it.  The annealed
passes are the AVX2 entry pair when the CPU has AVX2, else the baseline
pair; both give the same bits.  When no compiler is found, the compile
fails or the cache is not writable, load() returns None after one warning
per process that names every reference code path, and each layer runs its
Python or numpy reference.

usable_cpus() is the one count of the CPUs this process may run on.
load() binds it once as the library's `threads`, the most threads that a
search batch (split into contiguous seed ranges) or an annealed pass (split
into contiguous destination rows) runs on, and it caps run_ensemble's
thread pool.  thread_count() is the one rule for how many threads a kernel
call gets.
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

SOURCES = tuple(Path(__file__).with_name(name) for name in
                ("dpll_kernel.c", "annealed_kernel.c", "oracle_kernel.c"))
CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off", "-pthread")
# what the layers run when load() returns None
_REFERENCE_PATHS = ("the Python DPLL search, Monte Carlo and instance "
                    "generator loops, the numpy annealed passes and the "
                    "Python closure walk")

HEURISTIC_CODES = {"UC": 0, "GUC": 1, "SC1": 2}
# seeds a search call gives each of its threads at least: four blocks of
# the 16 that the kernel seeds at once
THREAD_SEEDS = 64
# sg_search return codes
_ERRORS = {-1: (MemoryError, "DPLL kernel out of memory"),
           -2: (AssertionError, "unit clause without a free literal"),
           -3: (AssertionError, "solver produced a non-satisfying assignment")}


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    reports one, else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def thread_count(lib, work: int, per_thread: int) -> int:
    """Threads for a kernel call over `work` units: at least `per_thread`
    units each, at most lib.threads, and at least one."""
    return max(1, min(lib.threads, work // per_thread))


def _compiler():
    """Path of the C compiler, or None."""
    return shutil.which("gcc")


def _cache_dir() -> Path:
    """Where compiled libraries live; Path.home() raises RuntimeError when
    there is no home directory."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(Path.home(), ".cache")
    return Path(base) / "satgrowth"


def _library_path(cc: str) -> Path:
    """Where the library that `cc` builds from SOURCES is cached: its name
    is keyed by each source and by the compile command."""
    parts = [repr((os.path.basename(cc),) + CFLAGS).encode()]
    parts += [hashlib.blake2b(source.read_bytes()).digest() for source in SOURCES]
    key = hashlib.blake2b(b"".join(parts), digest_size=8).hexdigest()
    return _cache_dir() / f"kernels-{key}.so"


def _build(cc: str) -> Path:
    """Path of the compiled library, compiling it if the cache lacks it."""
    target = _library_path(cc)
    if target.exists():
        return target
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=".kernels-", suffix=".so")
    os.close(fd)
    try:
        subprocess.run([cc, *CFLAGS, "-o", tmp, *map(str, SOURCES)], check=True,
                       capture_output=True, text=True, timeout=300)
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return target


class AnnealedPasses(NamedTuple):
    """The annealed kernel's two entry points, as bound ctypes functions."""
    thin: Callable
    convert: Callable
    avx2: bool


def _annealed_passes(lib, avx2: bool) -> AnnealedPasses:
    """The AVX2 or the baseline entry pair of the annealed kernel in `lib`."""
    suffix = "_avx2" if avx2 else ""
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    thin = getattr(lib, "sg_thin" + suffix)
    thin.argtypes = [ptr, ptr, i64, i64, i64, ptr, i64, i64]
    thin.restype = None
    convert = getattr(lib, "sg_convert" + suffix)
    convert.argtypes = [ptr, ptr, i64, i64, i64, i64, i64, ptr, i64, i64]
    convert.restype = None
    return AnnealedPasses(thin, convert, avx2)


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
def load():
    """The compiled library, or None when it cannot be built here.  Every
    sg_* entry point has its argument and return types bound, the library's
    `passes` is the annealed pass pair (AnnealedPasses) that this process
    runs, and its `threads` is usable_cpus(), the most threads that a
    search batch or an annealed pass splits its work across."""
    cc = _compiler()
    if cc is None:
        return _fallback("no C compiler (gcc) found")
    try:
        lib = ctypes.CDLL(str(_build(cc)))
    except subprocess.CalledProcessError as exc:
        return _fallback(f"compiling the kernels failed: {exc.stderr.strip()}")
    except (OSError, RuntimeError, subprocess.SubprocessError) as exc:
        return _fallback(f"cannot build or load the kernels: {exc}")
    i32, i64, ptr = ctypes.c_int32, ctypes.c_int64, ctypes.c_void_p
    lib.sg_search.argtypes = [i32, i32, ptr, ptr, i32, i32, ptr, ptr,
                              ctypes.c_char_p, ctypes.POINTER(ctypes.POINTER(i32)), i32]
    lib.sg_search.restype = ctypes.c_int
    lib.sg_generate.argtypes = [i32, i64, i64, ptr, i32, ptr, ptr]
    lib.sg_generate.restype = None
    lib.sg_free.argtypes = [ptr]
    lib.sg_free.restype = None
    lib.sg_random.argtypes = [ptr, i32, i32, ctypes.POINTER(ctypes.c_double)]
    lib.sg_random.restype = None
    lib.sg_closure.argtypes = [i32, i32, ptr, ptr, i32, ctypes.POINTER(_Closure)]
    lib.sg_closure.restype = ctypes.c_int
    lib.sg_closure_free.argtypes = [ctypes.POINTER(_Closure)]
    lib.sg_closure_free.restype = None
    lib.sg_has_avx2.argtypes = []
    lib.sg_has_avx2.restype = ctypes.c_int
    lib.passes = _annealed_passes(lib, bool(lib.sg_has_avx2()))
    lib.threads = usable_cpus()
    return lib


def _fallback(reason: str):
    warnings.warn(f"satgrowth: using {_REFERENCE_PATHS}; {reason}",
                  RuntimeWarning, stacklevel=3)
    return None


def _check(rc: int) -> None:
    """Raise the exception of a nonzero DPLL kernel return code."""
    if rc:
        exc_type, message = _ERRORS.get(rc, (RuntimeError, f"DPLL kernel returned {rc}"))
        raise exc_type(message)


def search(lib, n_vars: int, lits, start, heuristic: str, mixed_seeds: List[int],
           record_cloud: bool):
    """One kernel search per already mixed seed, in one call.  `lits` and
    `start` are array('i') buffers of the packed literals and the m + 1
    clause offsets.  Returns (rows, assignments, cloud): rows is an
    array('q') of six values per seed, (sat, q_splits, b_leaves) and the
    g-node's (assigned, C2, C3) with assigned -1 without a g-node;
    assignments holds n_vars value bytes per seed, set where the search is
    sat and zero elsewhere; cloud lists every search's split-node
    (assigned, C2, C3) triples in seed order, or nothing without
    record_cloud.

    The kernel seeds every search the same way: each block of up to 16
    seeds with one MT19937 mixing pass over the block's states at once, a
    single solve as a block of one.  It splits the seeds into contiguous
    ranges on up to lib.threads threads, at least THREAD_SEEDS seeds each,
    so a single solve and a short batch run on the calling thread; a call
    that records the cloud runs on the calling thread whatever its size.
    Every search makes the draws it makes alone: the results do not depend
    on the batch, the block or the thread count."""
    seeds = array("Q", mixed_seeds)
    rows = array("q", bytes(48 * len(seeds)))
    assignments = ctypes.create_string_buffer(n_vars * len(seeds))
    cloud = ctypes.POINTER(ctypes.c_int32)()
    _check(lib.sg_search(n_vars, len(start) - 1, lits.buffer_info()[0],
                         start.buffer_info()[0], HEURISTIC_CODES[heuristic],
                         len(seeds), seeds.buffer_info()[0], rows.buffer_info()[0],
                         assignments, ctypes.byref(cloud) if record_cloud else None,
                         thread_count(lib, len(seeds), THREAD_SEEDS)))
    triples = []
    if cloud:
        flat = cloud[:3 * sum(rows[1::6])]
        lib.sg_free(cloud)
        triples = list(zip(flat[0::3], flat[1::3], flat[2::3]))
    return rows, assignments.raw, triples


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


def _int64s(ptr, n: int) -> array:
    """An array('q') copy of the n int64 values at ptr."""
    out = array("q", [0]) * n
    if n:
        ctypes.memmove(out.buffer_info()[0], ptr, 8 * n)
    return out


def closure(lib, n_vars: int, lits, start, heuristic: str):
    """The forward closure of the all-undetermined state, walked by the
    oracle kernel.  `lits` and `start` are the instance's array('i')
    buffers.  Returns (states, violating, offsets, succ, keys, wbase), each
    copied once from the kernel: the columns' packed state indices in walk
    order (array('q')), one byte per column (1 where the state violates a
    clause), the n + 1 offsets of the columns' entries (array('q')), and per
    entry its successor's column position and its weight key numerator *
    wbase + denominator (array('q') each)."""
    out = _Closure()
    try:
        if lib.sg_closure(n_vars, len(start) - 1, lits.buffer_info()[0],
                          start.buffer_info()[0], HEURISTIC_CODES[heuristic],
                          ctypes.byref(out)):
            raise MemoryError("oracle kernel out of memory")
        n, nnz = out.n_states, out.nnz
        return (_int64s(out.state, n), ctypes.string_at(out.violating, n),
                _int64s(out.offset, n + 1), _int64s(out.succ, nnz),
                _int64s(out.weight, nnz), out.wbase)
    finally:
        lib.sg_closure_free(ctypes.byref(out))
