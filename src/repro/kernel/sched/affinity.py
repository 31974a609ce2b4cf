"""UNIX priority scheduling with cache affinity [VaZ91].

The engineering and pmake workloads are multiprogrammed: more runnable
processes than CPUs, scheduled by priority with affinity.  Affinity keeps
a process on the CPU it last ran on; fairness and load balancing still
move processes occasionally — and each move strands the process's
first-touch pages on the old node, which is precisely the locality problem
page migration repairs (Section 3.1, group one).

The model: every process has a *home* CPU.  Each quantum, every CPU runs
the most-starved runnable process homed on it.  A blocked process (the
``duty_cycle`` models I/O and synchronisation waits) keeps its home and
resumes there.  When a CPU goes idle while another CPU has more than one
runnable process, the balancer re-homes the most-starved waiter onto the
idle CPU — a genuine process migration.  ``rebalance_probability`` adds
the occasional gratuitous move a real priority scheduler produces.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.common.errors import SchedulerError
from repro.common.rng import make_rng
from repro.kernel.sched.process import Epoch, Process, Schedule

#: Signature of the re-home hook: ``(now_ns, pid, src_cpu, dst_cpu,
#: reason) -> bool``.  ``reason`` is ``"idle-pull"`` (load balancing) or
#: ``"rebalance"`` (gratuitous churn).  Returning False vetoes a
#: gratuitous move; idle-pulls always proceed (they fix a starving
#: queue) but still notify, so a placement policy can track where every
#: thread's home is.
RehomeHook = Callable[[int, int, int, int, str], bool]


class AffinityScheduler:
    """Quantum-based priority scheduler with sticky cache affinity."""

    def __init__(
        self,
        n_cpus: int,
        quantum_ns: int = 20_000_000,
        duty_cycle: float = 1.0,
        rebalance_probability: float = 0.02,
        max_moves_per_quantum: int = 1,
        seed: int = 0,
        rehome_hook: Optional[RehomeHook] = None,
    ) -> None:
        if n_cpus <= 0:
            raise SchedulerError("need at least one CPU")
        if quantum_ns <= 0:
            raise SchedulerError("quantum must be positive")
        if not 0.0 < duty_cycle <= 1.0:
            raise SchedulerError("duty cycle must lie in (0, 1]")
        if not 0.0 <= rebalance_probability <= 1.0:
            raise SchedulerError("rebalance probability must lie in [0, 1]")
        if max_moves_per_quantum < 0:
            raise SchedulerError("max moves must be non-negative")
        self.n_cpus = n_cpus
        self.quantum_ns = quantum_ns
        self.duty_cycle = duty_cycle
        self.rebalance_probability = rebalance_probability
        self.max_moves_per_quantum = max_moves_per_quantum
        self.seed = seed
        #: Optional placement-policy seam (see :data:`RehomeHook`).  The
        #: co-placement policy uses it to keep thread homes aligned with
        #: the page tables those threads walk — and to veto the churny
        #: moves that would strand a thread away from its PT replicas.
        self.rehome_hook = rehome_hook

    def build(self, processes: Sequence[Process], duration_ns: int) -> Schedule:
        """Generate the schedule for ``processes`` over ``duration_ns``."""
        if duration_ns <= 0:
            raise SchedulerError("duration must be positive")
        rng = make_rng(self.seed, "affinity-scheduler")
        home: Dict[int, int] = {}
        last_ran: Dict[int, int] = {}
        idle_streak: List[int] = [0] * self.n_cpus
        epochs: List[Epoch] = []
        time = 0
        quantum_index = 0
        while time < duration_ns:
            end = min(time + self.quantum_ns, duration_ns)
            runnable = []
            for proc in processes:
                if not proc.alive_at(time):
                    home.pop(proc.pid, None)
                    continue
                if proc.pid not in home:
                    home[proc.pid] = self._initial_home(proc.pid, home)
                    last_ran[proc.pid] = -1
                if self.duty_cycle >= 1.0 or rng.random() < self.duty_cycle:
                    runnable.append(proc.pid)
            self._balance(time, runnable, home, last_ran, idle_streak, rng)
            running = self._choose_runners(runnable, home, last_ran)
            for pid in running.values():
                last_ran[pid] = quantum_index
            for cpu in range(self.n_cpus):
                idle_streak[cpu] = 0 if cpu in running else idle_streak[cpu] + 1
            epochs.append(Epoch(start_ns=time, end_ns=end, running=running))
            time = end
            quantum_index += 1
        return Schedule(epochs, self.n_cpus)

    # -- helpers -------------------------------------------------------------------

    def _initial_home(self, pid: int, home: Dict[int, int]) -> int:
        """Least-loaded CPU for a newly arrived process (ties: lowest id)."""
        load = [0] * self.n_cpus
        for cpu in home.values():
            load[cpu] += 1
        return min(range(self.n_cpus), key=lambda c: (load[c], c))

    def _choose_runners(
        self,
        runnable: List[int],
        home: Dict[int, int],
        last_ran: Dict[int, int],
    ) -> Dict[int, int]:
        """Each CPU runs the most-starved runnable process homed on it."""
        queues: Dict[int, List[int]] = {}
        for pid in runnable:
            queues.setdefault(home[pid], []).append(pid)
        running: Dict[int, int] = {}
        for cpu, pids in queues.items():
            pids.sort(key=lambda p: (last_ran[p], p))
            running[cpu] = pids[0]
        return running

    def _balance(
        self,
        now_ns: int,
        runnable: List[int],
        home: Dict[int, int],
        last_ran: Dict[int, int],
        idle_streak: List[int],
        rng,
    ) -> None:
        """Re-home waiters onto persistently idle CPUs (plus rare moves).

        A CPU idle for a single quantum is usually just waiting for its
        blocked process; moving someone there would defeat affinity.  Only
        a CPU idle for two consecutive quanta attracts a waiter.
        """
        moves_left = self.max_moves_per_quantum
        counts = [0] * self.n_cpus
        for pid in runnable:
            counts[home[pid]] += 1
        idle = [
            c
            for c in range(self.n_cpus)
            if counts[c] == 0 and idle_streak[c] >= 2
        ]
        # Pull the most-starved waiter from the deepest queue to each idle CPU.
        while idle and moves_left > 0:
            deepest = max(range(self.n_cpus), key=lambda c: counts[c])
            if counts[deepest] < 2:
                break
            waiters = [p for p in runnable if home[p] == deepest]
            waiters.sort(key=lambda p: (last_ran[p], p))
            mover = waiters[-1] if len(waiters) > 1 else waiters[0]
            target = idle.pop(0)
            if self.rehome_hook is not None:
                # Notify-only for idle pulls: the move fixes starvation.
                self.rehome_hook(now_ns, mover, deepest, target, "idle-pull")
            home[mover] = target
            counts[deepest] -= 1
            counts[target] += 1
            moves_left -= 1
        # Occasional gratuitous rebalance (priority churn in a real
        # kernel).  The RNG draws happen before the hook so a veto does
        # not perturb the schedule of later quanta.
        if runnable and rng.random() < self.rebalance_probability:
            mover = runnable[int(rng.integers(0, len(runnable)))]
            target = int(rng.integers(0, self.n_cpus))
            if self.rehome_hook is not None and not self.rehome_hook(
                now_ns, mover, home[mover], target, "rebalance"
            ):
                return
            home[mover] = target
