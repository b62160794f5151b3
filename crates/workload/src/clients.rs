//! The closed-loop client pool (the JMeter stand-in).

use asyncinv_simcore::{SimDuration, SimRng, SimTime};
use serde::{Deserialize, Serialize};

use crate::class::Mix;
use crate::think::ThinkTime;

/// Identifies a virtual user.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct UserId(pub usize);

/// How requests are generated.
///
/// The paper's experiments are **closed-loop** (JMeter threads: a fixed
/// number of outstanding requests — the property its Little's-law analysis
/// depends on). The **open-loop** mode is an extension for methodology
/// studies: arrivals follow a Poisson process independent of completions,
/// so response times diverge as offered load approaches capacity and
/// arrivals finding every connection busy are *dropped* (counted).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum ArrivalMode {
    /// Each user waits for its response (optionally thinks) before sending
    /// again. Outstanding requests never exceed the user count.
    #[default]
    Closed,
    /// Requests arrive at `rate_per_sec` (exponential interarrivals)
    /// regardless of completions, on the first idle connection.
    Open {
        /// Mean arrival rate, requests per second.
        rate_per_sec: f64,
    },
}

/// Events the client pool asks the driver to deliver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientEvent {
    /// The user's think time elapsed; it now issues its next request. The
    /// driver must call [`ClientPool::next_request`].
    Send {
        /// The user issuing the request.
        user: UserId,
    },
    /// Open-loop mode: the Poisson process fires; the driver must call
    /// [`ClientPool::on_arrival`].
    Arrival,
}

/// A request as issued by a user.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestSpec {
    /// Issuing user.
    pub user: UserId,
    /// Index into the mix's class table.
    pub class: usize,
    /// Response payload the server must produce.
    pub response_bytes: usize,
    /// Request payload size.
    pub request_bytes: usize,
}

/// Client pool configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClientConfig {
    /// Number of closed-loop virtual users (the paper's "workload
    /// concurrency").
    pub concurrency: usize,
    /// Think time between consecutive requests of a user.
    pub think: ThinkTime,
    /// Request class mixture.
    pub mix: Mix,
    /// RNG seed for class sampling, jitter and think times.
    pub seed: u64,
    /// Closed-loop (the paper's setup) or open-loop arrivals.
    pub arrivals: ArrivalMode,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum UserState {
    /// Waiting for its first send or between think and send.
    Thinking,
    /// Request issued, response not yet fully received.
    Waiting,
}

/// A pool of closed-loop virtual users.
///
/// Each user loops: *(think) → send request → wait for the full response →
/// repeat*. With zero think time exactly `concurrency` requests are
/// outstanding at all times, which is the property the paper relies on to
/// control server-side concurrency precisely.
///
/// See the [crate documentation](crate) for an example.
#[derive(Debug)]
pub struct ClientPool {
    cfg: ClientConfig,
    rng: SimRng,
    users: Vec<UserState>,
    started: bool,
    requests_sent: u64,
    responses_done: u64,
    /// Open-loop arrivals that found every connection busy.
    dropped: u64,
    /// Requests given up on (retries exhausted or an abandonment fault).
    abandoned: u64,
}

impl ClientPool {
    /// Creates a pool from `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.concurrency` is zero.
    pub fn new(cfg: ClientConfig) -> Self {
        assert!(cfg.concurrency > 0, "need at least one user");
        let rng = SimRng::new(cfg.seed);
        let users = vec![UserState::Thinking; cfg.concurrency];
        ClientPool {
            cfg,
            rng,
            users,
            started: false,
            requests_sent: 0,
            responses_done: 0,
            dropped: 0,
            abandoned: 0,
        }
    }

    /// The pool configuration.
    pub fn config(&self) -> &ClientConfig {
        &self.cfg
    }

    /// Total requests issued so far.
    pub fn requests_sent(&self) -> u64 {
        self.requests_sent
    }

    /// Total responses completed so far.
    pub fn responses_done(&self) -> u64 {
        self.responses_done
    }

    /// Open-loop arrivals dropped because every connection was busy.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Requests the pool gave up on via [`ClientPool::abandon`].
    pub fn abandoned(&self) -> u64 {
        self.abandoned
    }

    /// Users currently waiting for a response.
    pub fn in_flight(&self) -> usize {
        self.users
            .iter()
            .filter(|s| **s == UserState::Waiting)
            .count()
    }

    /// Schedules the initial send for every user, with up to 1 ms of
    /// uniform jitter so users do not start in lockstep (JMeter ramps
    /// similarly).
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn start(&mut self, out: &mut Vec<(SimTime, ClientEvent)>) {
        assert!(!self.started, "client pool already started");
        self.started = true;
        match self.cfg.arrivals {
            ArrivalMode::Closed => {
                for i in 0..self.users.len() {
                    let jitter = SimDuration::from_nanos(self.rng.gen_range(1_000_000));
                    out.push((
                        SimTime::ZERO + jitter,
                        ClientEvent::Send { user: UserId(i) },
                    ));
                }
            }
            ArrivalMode::Open { .. } => {
                let first = self.next_interarrival();
                out.push((SimTime::ZERO + first, ClientEvent::Arrival));
            }
        }
    }

    fn next_interarrival(&mut self) -> SimDuration {
        let ArrivalMode::Open { rate_per_sec } = self.cfg.arrivals else {
            panic!("interarrival sampling in closed-loop mode");
        };
        assert!(
            rate_per_sec.is_finite() && rate_per_sec > 0.0,
            "open-loop rate must be positive"
        );
        SimDuration::from_secs_f64(self.rng.exp_f64(1.0 / rate_per_sec))
    }

    /// Open-loop mode: an arrival fired. Assigns the request to an idle
    /// connection (or drops it) and schedules the next arrival.
    ///
    /// # Panics
    ///
    /// Panics in closed-loop mode.
    pub fn on_arrival(
        &mut self,
        now: SimTime,
        out: &mut Vec<(SimTime, ClientEvent)>,
    ) -> Option<RequestSpec> {
        let next = self.next_interarrival();
        out.push((now + next, ClientEvent::Arrival));
        let idle = self.users.iter().position(|s| *s == UserState::Thinking);
        match idle {
            Some(i) => Some(self.next_request(now, UserId(i))),
            None => {
                self.dropped += 1;
                None
            }
        }
    }

    /// Called when a [`ClientEvent::Send`] fires: samples the request the
    /// user issues at virtual time `now` (drifting classes resolve their
    /// size against it). The driver is responsible for delivering it to the
    /// server after the client→server network delay.
    ///
    /// # Panics
    ///
    /// Panics if the user already has a request in flight (driver bug).
    pub fn next_request(&mut self, now: SimTime, user: UserId) -> RequestSpec {
        let st = &mut self.users[user.0];
        assert_eq!(*st, UserState::Thinking, "user {user:?} already waiting");
        *st = UserState::Waiting;
        self.requests_sent += 1;
        let class = self.cfg.mix.sample(&mut self.rng);
        let c = &self.cfg.mix.classes()[class];
        let response_bytes = c.sample_response_bytes(now, &mut self.rng);
        RequestSpec {
            user,
            class,
            response_bytes,
            request_bytes: c.request_bytes,
        }
    }

    /// Called when the user has received its full response; schedules the
    /// next send after the think time.
    ///
    /// # Panics
    ///
    /// Panics if the user was not waiting for a response (driver bug).
    pub fn complete(&mut self, now: SimTime, user: UserId, out: &mut Vec<(SimTime, ClientEvent)>) {
        let st = &mut self.users[user.0];
        assert_eq!(*st, UserState::Waiting, "user {user:?} was not waiting");
        *st = UserState::Thinking;
        self.responses_done += 1;
        if matches!(self.cfg.arrivals, ArrivalMode::Closed) {
            let think = self.cfg.think.sample(&mut self.rng);
            out.push((now + think, ClientEvent::Send { user }));
        }
        // Open loop: the connection simply becomes available for the next
        // arrival; completions do not generate traffic.
    }

    /// The user gives up on its in-flight request (retry policy exhausted,
    /// or an abandonment fault). Like [`ClientPool::complete`] the user
    /// returns to thinking and — in closed-loop mode — schedules its next
    /// send after a think time, but no response is counted.
    ///
    /// # Panics
    ///
    /// Panics if the user was not waiting for a response (driver bug).
    pub fn abandon(&mut self, now: SimTime, user: UserId, out: &mut Vec<(SimTime, ClientEvent)>) {
        let st = &mut self.users[user.0];
        assert_eq!(*st, UserState::Waiting, "user {user:?} was not waiting");
        *st = UserState::Thinking;
        self.abandoned += 1;
        if matches!(self.cfg.arrivals, ArrivalMode::Closed) {
            let think = self.cfg.think.sample(&mut self.rng);
            out.push((now + think, ClientEvent::Send { user }));
        }
    }

    /// Draws a retry backoff for `attempt` (0-based retry count) from the
    /// pool's RNG stream. Only called when a retry actually happens, so
    /// disabled policies leave the RNG stream untouched.
    pub fn retry_backoff(&mut self, policy: &crate::RetryPolicy, attempt: u32) -> SimDuration {
        policy.backoff_for(attempt, &mut self.rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::Mix;

    fn pool(n: usize) -> ClientPool {
        ClientPool::new(ClientConfig {
            concurrency: n,
            think: ThinkTime::Zero,
            mix: Mix::single("1KB", 1024),
            seed: 7,
            arrivals: ArrivalMode::Closed,
        })
    }

    #[test]
    fn start_schedules_one_send_per_user() {
        let mut p = pool(5);
        let mut out = Vec::new();
        p.start(&mut out);
        assert_eq!(out.len(), 5);
        let mut users: Vec<_> = out
            .iter()
            .filter_map(|(_, e)| match e {
                ClientEvent::Send { user } => Some(user.0),
                ClientEvent::Arrival => None,
            })
            .collect();
        users.sort_unstable();
        assert_eq!(users, vec![0, 1, 2, 3, 4]);
        // All within the 1 ms jitter window.
        assert!(out.iter().all(|(t, _)| t.as_millis() <= 1));
    }

    #[test]
    fn closed_loop_cycle() {
        let mut p = pool(1);
        let mut out = Vec::new();
        p.start(&mut out);
        let spec = p.next_request(SimTime::ZERO, UserId(0));
        assert_eq!(spec.response_bytes, 1024);
        assert_eq!(p.in_flight(), 1);
        out.clear();
        p.complete(SimTime::from_millis(3), UserId(0), &mut out);
        assert_eq!(p.in_flight(), 0);
        // Zero think: next send scheduled immediately.
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, SimTime::from_millis(3));
        assert_eq!(p.requests_sent(), 1);
        assert_eq!(p.responses_done(), 1);
    }

    #[test]
    fn think_time_delays_next_send() {
        let mut p = ClientPool::new(ClientConfig {
            concurrency: 1,
            think: ThinkTime::Fixed(SimDuration::from_secs(7)),
            mix: Mix::single("x", 10),
            seed: 1,
            arrivals: ArrivalMode::Closed,
        });
        let mut out = Vec::new();
        p.start(&mut out);
        p.next_request(SimTime::ZERO, UserId(0));
        out.clear();
        p.complete(SimTime::from_secs(1), UserId(0), &mut out);
        assert_eq!(out[0].0, SimTime::from_secs(8));
    }

    #[test]
    fn concurrency_never_exceeds_pool_size() {
        let mut p = pool(3);
        let mut out = Vec::new();
        p.start(&mut out);
        for i in 0..3 {
            p.next_request(SimTime::ZERO, UserId(i));
        }
        assert_eq!(p.in_flight(), 3);
    }

    #[test]
    #[should_panic(expected = "already waiting")]
    fn double_send_panics() {
        let mut p = pool(1);
        let mut out = Vec::new();
        p.start(&mut out);
        p.next_request(SimTime::ZERO, UserId(0));
        p.next_request(SimTime::ZERO, UserId(0));
    }

    #[test]
    #[should_panic(expected = "was not waiting")]
    fn spurious_complete_panics() {
        let mut p = pool(1);
        let mut out = Vec::new();
        p.start(&mut out);
        p.complete(SimTime::ZERO, UserId(0), &mut out);
    }

    #[test]
    #[should_panic(expected = "already started")]
    fn double_start_panics() {
        let mut p = pool(1);
        let mut out = Vec::new();
        p.start(&mut out);
        p.start(&mut out);
    }

    #[test]
    fn deterministic_given_seed() {
        let specs = |seed: u64| {
            let mut p = ClientPool::new(ClientConfig {
                concurrency: 2,
                think: ThinkTime::Zero,
                mix: Mix::heavy_light(0.5),
                seed,
                arrivals: ArrivalMode::Closed,
            });
            let mut out = Vec::new();
            p.start(&mut out);
            (0..2)
                .map(|i| p.next_request(SimTime::ZERO, UserId(i)).class)
                .collect::<Vec<_>>()
        };
        assert_eq!(specs(9), specs(9));
    }
}
