//! A c-server FIFO queue with stochastic service times.
//!
//! §4.4's worry is load: "If every labeled photo must be looked up before
//! being displayed, the load on ledgers could easily become enormous."
//! Latency and load are coupled through queueing — a ledger near
//! saturation answers slowly, which is why the 50× filter cut matters for
//! *latency*, not just hosting cost. This model makes that coupling
//! explicit: arrivals are admitted to the earliest-free of `c` servers and
//! wait if all are busy.

use crate::latency::LatencyModel;
use irs_core::time::TimeMs;
use rand::rngs::StdRng;

/// A multi-server FIFO queue.
#[derive(Clone, Debug)]
pub struct QueueingServer {
    service: LatencyModel,
    busy_until: Vec<TimeMs>,
    /// Jobs admitted.
    pub jobs: u64,
    /// Total queueing delay accumulated (ms, excludes service time).
    pub total_wait_ms: u64,
}

/// Timing of one admitted job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JobTiming {
    /// When service began (≥ arrival).
    pub start: TimeMs,
    /// When service completed.
    pub finish: TimeMs,
    /// Queueing wait (start − arrival).
    pub wait_ms: u64,
}

impl QueueingServer {
    /// `servers` parallel workers with `service`-distributed job times.
    pub fn new(servers: usize, service: LatencyModel) -> QueueingServer {
        assert!(servers > 0, "need at least one server");
        QueueingServer {
            service,
            busy_until: vec![TimeMs::ZERO; servers],
            jobs: 0,
            total_wait_ms: 0,
        }
    }

    /// Admit a job arriving at `arrival`. Arrivals must be fed in
    /// nondecreasing time order (as an event loop naturally does).
    pub fn admit(&mut self, arrival: TimeMs, rng: &mut StdRng) -> JobTiming {
        // Earliest-free server.
        let (idx, &free_at) = self
            .busy_until
            .iter()
            .enumerate()
            .min_by_key(|(_, &t)| t)
            .expect("at least one server");
        let start = arrival.max(free_at);
        let service_ms = self.service.sample(rng);
        let finish = start.plus(service_ms);
        self.busy_until[idx] = finish;
        let wait_ms = start.since(arrival);
        self.jobs += 1;
        self.total_wait_ms += wait_ms;
        JobTiming {
            start,
            finish,
            wait_ms,
        }
    }

    /// Offered load ρ for a given arrival rate (jobs/ms), from the service
    /// distribution's median as the mean approximation.
    pub fn utilization(&self, arrivals_per_ms: f64) -> f64 {
        arrivals_per_ms * self.service.median() / self.busy_until.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x90)
    }

    #[test]
    fn idle_server_starts_immediately() {
        let mut q = QueueingServer::new(2, LatencyModel::Constant(10));
        let mut r = rng();
        let t = q.admit(TimeMs(100), &mut r);
        assert_eq!(t.start, TimeMs(100));
        assert_eq!(t.finish, TimeMs(110));
        assert_eq!(t.wait_ms, 0);
    }

    #[test]
    fn saturated_servers_queue() {
        let mut q = QueueingServer::new(1, LatencyModel::Constant(10));
        let mut r = rng();
        let a = q.admit(TimeMs(0), &mut r);
        let b = q.admit(TimeMs(0), &mut r);
        let c = q.admit(TimeMs(0), &mut r);
        assert_eq!(a.wait_ms, 0);
        assert_eq!(b.wait_ms, 10);
        assert_eq!(c.wait_ms, 20);
        assert_eq!((q.jobs, q.total_wait_ms), (3, 30));
    }

    #[test]
    fn multiple_servers_share_load() {
        let mut q = QueueingServer::new(2, LatencyModel::Constant(10));
        let mut r = rng();
        let a = q.admit(TimeMs(0), &mut r);
        let b = q.admit(TimeMs(0), &mut r);
        let c = q.admit(TimeMs(0), &mut r);
        assert_eq!(a.wait_ms, 0);
        assert_eq!(b.wait_ms, 0);
        assert_eq!(c.wait_ms, 10);
    }

    #[test]
    fn light_load_has_negligible_wait_heavy_load_blows_up() {
        let service = LatencyModel::Constant(10);
        // Light: inter-arrival 50 ms ≫ service 10 ms.
        let mut light = QueueingServer::new(1, service.clone());
        let mut r = rng();
        for i in 0..200u64 {
            light.admit(TimeMs(i * 50), &mut r);
        }
        assert_eq!(light.total_wait_ms, 0);
        // Heavy: inter-arrival 8 ms < service 10 ms ⇒ unbounded queue.
        let mut heavy = QueueingServer::new(1, service);
        let mut r = rng();
        for i in 0..200u64 {
            heavy.admit(TimeMs(i * 8), &mut r);
        }
        let (wait, jobs) = (heavy.total_wait_ms, heavy.jobs);
        assert!(wait > 50 * jobs, "mean wait {} ms", wait / jobs);
    }

    #[test]
    fn utilization_formula() {
        let q = QueueingServer::new(4, LatencyModel::Constant(20));
        // 0.1 jobs/ms × 20 ms / 4 servers = 0.5.
        assert!((q.utilization(0.1) - 0.5).abs() < 1e-9);
    }
}
