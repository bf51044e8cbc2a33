//! Resources: the contended hardware components of the simulated
//! testbed (NICs, network links, CPU pools, NVMe arrays, KV engines).

use crate::time::SimDuration;

/// Identifies a resource registered with a
/// [`Simulator`](crate::Simulator).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ResourceId(pub(crate) usize);

/// Static description of a resource.
///
/// A resource has `servers` independent channels; each op occupies one
/// channel for `per_op + bytes / bytes_per_sec`. A `bytes_per_sec` of
/// `f64::INFINITY` (see [`ResourceSpec::latency_only`]) models a purely
/// per-op-cost resource.
#[derive(Debug, Clone)]
pub struct ResourceSpec {
    /// Human-readable name.
    pub name: String,
    /// Number of independent servers/channels.
    pub servers: usize,
    /// Throughput of one server in bytes/second.
    pub bytes_per_sec: f64,
    /// Fixed cost per operation on top of the byte cost.
    pub per_op: SimDuration,
}

impl ResourceSpec {
    /// A single-channel pipe (e.g. one network link).
    #[must_use]
    pub fn pipe(name: &str, bytes_per_sec: f64, per_op: SimDuration) -> Self {
        Self::servers(name, 1, bytes_per_sec, per_op)
    }

    /// A k-server resource (e.g. an NVMe array with `servers` channels).
    ///
    /// # Panics
    ///
    /// Panics if `servers == 0` or `bytes_per_sec <= 0`.
    #[must_use]
    pub fn servers(name: &str, servers: usize, bytes_per_sec: f64, per_op: SimDuration) -> Self {
        assert!(servers > 0, "resource {name} must have at least one server");
        assert!(
            bytes_per_sec > 0.0,
            "resource {name} must have positive throughput"
        );
        ResourceSpec {
            name: name.to_string(),
            servers,
            bytes_per_sec,
            per_op,
        }
    }

    /// A resource with per-op cost only (no byte cost), e.g. a request
    /// dispatcher.
    #[must_use]
    pub fn latency_only(name: &str, servers: usize, per_op: SimDuration) -> Self {
        ResourceSpec {
            name: name.to_string(),
            servers,
            bytes_per_sec: f64::INFINITY,
            per_op,
        }
    }

    /// Service time of one op of `bytes` on a free server.
    #[must_use]
    pub fn service_time(&self, bytes: u64) -> SimDuration {
        if self.bytes_per_sec.is_infinite() {
            return self.per_op;
        }
        let transfer = SimDuration::from_secs_f64(bytes as f64 / self.bytes_per_sec);
        self.per_op + transfer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_time_combines_per_op_and_bytes() {
        let r = ResourceSpec::pipe("link", 1_000_000_000.0, SimDuration::from_micros(10));
        // 1 GB/s -> 1 byte/ns; 1000 bytes = 1µs + 10µs per-op.
        assert_eq!(r.service_time(1000), SimDuration::from_micros(11));
    }

    #[test]
    fn latency_only_ignores_bytes() {
        let r = ResourceSpec::latency_only("cpu", 2, SimDuration::from_micros(7));
        assert_eq!(r.service_time(0), SimDuration::from_micros(7));
        assert_eq!(r.service_time(1 << 30), SimDuration::from_micros(7));
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_rejected() {
        let _ = ResourceSpec::servers("bad", 0, 1.0, SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "positive throughput")]
    fn zero_rate_rejected() {
        let _ = ResourceSpec::servers("bad", 1, 0.0, SimDuration::ZERO);
    }
}
