//! The seeded fault schedule: pure, replayable, printable.
//!
//! A [`FaultPlan`] is a *function*, not a stream: `action(proxy, conn)`
//! depends only on the plan's [`ChaosConfig`] (seed included), never on
//! wall-clock, thread timing, or call order. Two processes holding the
//! same config compute the same schedule, which is what makes a failing
//! chaos run replayable — re-run the same seed and every connection draws
//! the same fault at the same position.

use std::time::Duration;

/// One fault applied to one proxied connection.
///
/// Request bytes (client → upstream) are forwarded verbatim except under
/// [`FaultAction::Delay`]; all other shaping applies to response bytes
/// (upstream → client), where the interesting failure modes live.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultAction {
    /// Forward both directions untouched.
    Pass,
    /// Sleep before forwarding each chunk, per direction.
    Delay {
        /// Added latency per request-direction chunk.
        request: Duration,
        /// Added latency per response-direction chunk.
        response: Duration,
    },
    /// Forward exactly `offset` response bytes, then close both sides
    /// mid-stream — the classic reset-during-response.
    ResetAfter {
        /// Response bytes forwarded before the connection is severed.
        offset: u64,
    },
    /// Accept the connection and swallow every request byte; never dial
    /// the upstream, never respond. Models an unreachable-but-accepting
    /// peer that only timeouts can detect.
    BlackHole,
    /// XOR one response byte at an absolute stream offset. The mask keeps
    /// the high bit set, so the damaged byte is never printable ASCII and
    /// a corrupted protocol line cannot silently stay well-formed.
    Corrupt {
        /// Absolute response-stream offset of the damaged byte.
        offset: u64,
        /// XOR mask applied to that byte (high bit always set).
        mask: u8,
    },
    /// Partial writes: dribble the response in `chunk`-byte slices with a
    /// flush stall between them — the slowloris shape, server side.
    Trickle {
        /// Bytes per write before the next stall.
        chunk: usize,
        /// Stall between flushed slices.
        stall: Duration,
    },
    /// Send every complete response line twice — a byzantine peer that
    /// desynchronizes naive pipelined clients.
    Duplicate,
    /// Swap each adjacent pair of complete response lines — pipelined
    /// responses arriving out of order.
    Reorder,
}

impl FaultAction {
    /// Stable one-line description, used by `octree chaos --print-plan`
    /// (and therefore by the smoke test's replay `cmp`).
    pub fn describe(&self) -> String {
        match self {
            FaultAction::Pass => "pass".to_owned(),
            FaultAction::Delay { request, response } => format!(
                "delay request_ms={} response_ms={}",
                request.as_millis(),
                response.as_millis()
            ),
            FaultAction::ResetAfter { offset } => format!("reset offset={offset}"),
            FaultAction::BlackHole => "blackhole".to_owned(),
            FaultAction::Corrupt { offset, mask } => {
                format!("corrupt offset={offset} mask={mask:#04x}")
            }
            FaultAction::Trickle { chunk, stall } => {
                format!("trickle chunk={chunk} stall_ms={}", stall.as_millis())
            }
            FaultAction::Duplicate => "duplicate".to_owned(),
            FaultAction::Reorder => "reorder".to_owned(),
        }
    }
}

/// Fault mix and parameter ranges. Every knob is an integer so configs
/// compare exactly and the fingerprint is stable across platforms.
///
/// Weights are relative: a connection draws its action with probability
/// `weight / total`. A config whose weights are all zero acts as
/// passthrough.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Root of the schedule; same seed + same knobs ⇒ same plan.
    pub seed: u64,
    /// Weight of [`FaultAction::Pass`].
    pub pass_weight: u32,
    /// Weight of [`FaultAction::Delay`].
    pub delay_weight: u32,
    /// Weight of [`FaultAction::ResetAfter`].
    pub reset_weight: u32,
    /// Weight of [`FaultAction::BlackHole`].
    pub blackhole_weight: u32,
    /// Weight of [`FaultAction::Corrupt`].
    pub corrupt_weight: u32,
    /// Weight of [`FaultAction::Trickle`].
    pub trickle_weight: u32,
    /// Weight of [`FaultAction::Duplicate`].
    pub duplicate_weight: u32,
    /// Weight of [`FaultAction::Reorder`].
    pub reorder_weight: u32,
    /// Per-chunk delays are drawn from `1..=delay_ms_max` milliseconds.
    pub delay_ms_max: u64,
    /// Reset offsets are drawn from `16..16 + reset_offset_max` bytes, so
    /// a reset always lands mid-response rather than pre-banner.
    pub reset_offset_max: u64,
    /// Corrupt offsets are drawn from `0..corrupt_offset_max` bytes.
    pub corrupt_offset_max: u64,
    /// Trickle slice size in bytes.
    pub trickle_chunk: u64,
    /// Trickle stall between slices, milliseconds.
    pub trickle_stall_ms: u64,
}

impl ChaosConfig {
    /// Base knobs shared by every named profile.
    fn base(seed: u64) -> Self {
        Self {
            seed,
            pass_weight: 1,
            delay_weight: 0,
            reset_weight: 0,
            blackhole_weight: 0,
            corrupt_weight: 0,
            trickle_weight: 0,
            duplicate_weight: 0,
            reorder_weight: 0,
            delay_ms_max: 20,
            reset_offset_max: 2048,
            corrupt_offset_max: 256,
            trickle_chunk: 16,
            trickle_stall_ms: 5,
        }
    }

    /// No faults at all — the control arm, and the "faults cleared"
    /// profile a recovery phase rebinds with.
    pub fn passthrough(seed: u64) -> Self {
        Self::base(seed)
    }

    /// Latency spikes only: every connection is delayed, nothing breaks.
    pub fn delays(seed: u64) -> Self {
        Self {
            pass_weight: 0,
            delay_weight: 1,
            ..Self::base(seed)
        }
    }

    /// Connection resets only, at seeded byte offsets.
    pub fn resets(seed: u64) -> Self {
        Self {
            pass_weight: 0,
            reset_weight: 1,
            ..Self::base(seed)
        }
    }

    /// The standing production-incident mix: mostly clean, some delayed,
    /// a few reset or trickled connections. No black-holes and no
    /// corruption — this is the profile a router must absorb with *zero*
    /// client-visible failures.
    pub fn mixed(seed: u64) -> Self {
        Self {
            pass_weight: 10,
            delay_weight: 4,
            reset_weight: 1,
            trickle_weight: 1,
            ..Self::base(seed)
        }
    }

    /// Actively hostile peer: corrupted bytes, duplicated and reordered
    /// response lines. Clients must fail *typed* (parse error → transport
    /// error), never act on garbage.
    pub fn byzantine(seed: u64) -> Self {
        Self {
            pass_weight: 1,
            corrupt_weight: 2,
            duplicate_weight: 2,
            reorder_weight: 2,
            ..Self::base(seed)
        }
    }

    /// Every connection black-holed — whole-peer loss behind a live
    /// accept queue.
    pub fn blackhole(seed: u64) -> Self {
        Self {
            pass_weight: 0,
            blackhole_weight: 1,
            ..Self::base(seed)
        }
    }

    /// Looks up a named profile (`passthrough`, `delays`, `resets`,
    /// `mixed`, `byzantine`, `blackhole`).
    pub fn profile(name: &str, seed: u64) -> Option<Self> {
        match name {
            "passthrough" => Some(Self::passthrough(seed)),
            "delays" => Some(Self::delays(seed)),
            "resets" => Some(Self::resets(seed)),
            "mixed" => Some(Self::mixed(seed)),
            "byzantine" => Some(Self::byzantine(seed)),
            "blackhole" => Some(Self::blackhole(seed)),
            _ => None,
        }
    }

    fn weights(&self) -> [u32; 8] {
        [
            self.pass_weight,
            self.delay_weight,
            self.reset_weight,
            self.blackhole_weight,
            self.corrupt_weight,
            self.trickle_weight,
            self.duplicate_weight,
            self.reorder_weight,
        ]
    }
}

impl Default for ChaosConfig {
    /// The [`ChaosConfig::mixed`] profile at seed 0.
    fn default() -> Self {
        Self::mixed(0)
    }
}

/// The deterministic schedule: maps `(proxy id, connection index)` to a
/// [`FaultAction`] as a pure function of the config.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    config: ChaosConfig,
}

/// The splitmix64 step used everywhere this workspace needs a cheap
/// deterministic stream (same idiom as the loadgen's key draws).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// Wraps a config into a plan.
    pub fn new(config: ChaosConfig) -> Self {
        Self { config }
    }

    /// The config this plan was built from.
    pub fn config(&self) -> &ChaosConfig {
        &self.config
    }

    /// The action for connection number `conn` accepted by proxy `proxy`.
    /// Pure: no state, no clock — the same arguments always return the
    /// same action.
    pub fn action(&self, proxy: u32, conn: u64) -> FaultAction {
        // Decorrelate the per-connection stream from the seed and the
        // proxy id, then draw everything the chosen action needs from it.
        let mut state = self.config.seed;
        let _ = splitmix64(&mut state);
        state ^= (u64::from(proxy).wrapping_add(1)).wrapping_mul(0xD6E8_FEB8_6659_FD93);
        let _ = splitmix64(&mut state);
        state ^= conn.wrapping_add(1).wrapping_mul(0xA5A3_5E4B_57D3_C2A7);

        let weights = self.config.weights();
        let total: u64 = weights.iter().map(|&w| u64::from(w)).sum();
        if total == 0 {
            return FaultAction::Pass;
        }
        let mut pick = splitmix64(&mut state) % total;
        let mut index = 0;
        for (i, &w) in weights.iter().enumerate() {
            let w = u64::from(w);
            if pick < w {
                index = i;
                break;
            }
            pick -= w;
        }
        let c = &self.config;
        match index {
            1 => FaultAction::Delay {
                request: Duration::from_millis(1 + splitmix64(&mut state) % c.delay_ms_max.max(1)),
                response: Duration::from_millis(1 + splitmix64(&mut state) % c.delay_ms_max.max(1)),
            },
            2 => FaultAction::ResetAfter {
                offset: 16 + splitmix64(&mut state) % c.reset_offset_max.max(1),
            },
            3 => FaultAction::BlackHole,
            4 => FaultAction::Corrupt {
                offset: splitmix64(&mut state) % c.corrupt_offset_max.max(1),
                mask: 0x80 | (splitmix64(&mut state) % 0x7F) as u8 | 0x01,
            },
            5 => FaultAction::Trickle {
                chunk: c.trickle_chunk.max(1) as usize,
                stall: Duration::from_millis(c.trickle_stall_ms),
            },
            6 => FaultAction::Duplicate,
            7 => FaultAction::Reorder,
            _ => FaultAction::Pass,
        }
    }

    /// Compact, stable fingerprint of the whole schedule — every knob the
    /// plan depends on, suitable for a log line or a report. Two runs with
    /// equal fingerprints injected identical fault sequences.
    pub fn fingerprint(&self) -> String {
        let c = &self.config;
        format!(
            "chaos-v1 seed={} weights={} delay<={}ms reset<16+{}B corrupt<{}B trickle={}B/{}ms",
            c.seed,
            c.weights().map(|w| w.to_string()).join("/"),
            c.delay_ms_max,
            c.reset_offset_max,
            c.corrupt_offset_max,
            c.trickle_chunk,
            c.trickle_stall_ms,
        )
    }

    /// One printable schedule row, used by `--print-plan`.
    pub fn describe(&self, proxy: u32, conn: u64) -> String {
        format!(
            "proxy={proxy} conn={conn} action={}",
            self.action(proxy, conn).describe()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let a = FaultPlan::new(ChaosConfig::mixed(42));
        let b = FaultPlan::new(ChaosConfig::mixed(42));
        for proxy in 0..4 {
            for conn in 0..64 {
                assert_eq!(a.action(proxy, conn), b.action(proxy, conn));
                assert_eq!(a.describe(proxy, conn), b.describe(proxy, conn));
            }
        }
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn different_seeds_diverge() {
        let a = FaultPlan::new(ChaosConfig::mixed(1));
        let b = FaultPlan::new(ChaosConfig::mixed(2));
        let differs = (0..64).any(|conn| a.action(0, conn) != b.action(0, conn));
        assert!(differs, "seeds 1 and 2 produced identical schedules");
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn proxies_decorrelate() {
        let plan = FaultPlan::new(ChaosConfig::mixed(7));
        let differs = (0..64).any(|conn| plan.action(0, conn) != plan.action(1, conn));
        assert!(differs, "proxy id does not enter the schedule");
    }

    #[test]
    fn single_weight_profiles_are_uniform() {
        let plan = FaultPlan::new(ChaosConfig::blackhole(9));
        for conn in 0..32 {
            assert_eq!(plan.action(3, conn), FaultAction::BlackHole);
        }
        let plan = FaultPlan::new(ChaosConfig::passthrough(9));
        for conn in 0..32 {
            assert_eq!(plan.action(3, conn), FaultAction::Pass);
        }
    }

    #[test]
    fn mixed_profile_draws_every_weighted_action() {
        let plan = FaultPlan::new(ChaosConfig::mixed(1234));
        let mut saw = [false; 4]; // pass, delay, reset, trickle
        for conn in 0..512 {
            match plan.action(0, conn) {
                FaultAction::Pass => saw[0] = true,
                FaultAction::Delay { request, response } => {
                    assert!(request.as_millis() >= 1 && request.as_millis() <= 20);
                    assert!(response.as_millis() >= 1 && response.as_millis() <= 20);
                    saw[1] = true;
                }
                FaultAction::ResetAfter { offset } => {
                    assert!((16..16 + 2048).contains(&offset));
                    saw[2] = true;
                }
                FaultAction::Trickle { .. } => saw[3] = true,
                other => panic!("mixed profile drew unweighted action {other:?}"),
            }
        }
        assert!(
            saw.iter().all(|&s| s),
            "512 draws missed an action: {saw:?}"
        );
    }

    #[test]
    fn corrupt_masks_always_damage_the_byte() {
        let plan = FaultPlan::new(ChaosConfig::byzantine(5));
        for conn in 0..256 {
            if let FaultAction::Corrupt { mask, .. } = plan.action(0, conn) {
                assert!(mask & 0x80 != 0, "mask {mask:#04x} keeps ASCII printable");
                assert_ne!(mask, 0, "zero mask is a no-op");
            }
        }
    }

    #[test]
    fn profile_lookup_matches_constructors() {
        assert_eq!(
            ChaosConfig::profile("mixed", 3),
            Some(ChaosConfig::mixed(3))
        );
        assert_eq!(ChaosConfig::profile("nope", 3), None);
    }
}
