//! The steering wire protocol.
//!
//! Client → simulation: [`SteeringCommand`]. Simulation → client:
//! [`StatusReport`] and [`ImageFrame`]. Frames are self-describing
//! (kind byte + payload) and encoded with the same compact
//! little-endian wire layer the substrate uses.

use hemelb_parallel::{CommError, CommResult, Wire, WireReader, WireWriter};

/// The one frame-length ceiling every steering endpoint enforces, in
/// both directions. The TCP framing refuses to *read* a longer frame
/// before allocating, refuses to *send* one, and the decode paths
/// (server command poll, client message receive, image payloads)
/// re-check it so an in-memory transport — which has no framing layer —
/// gets the same guarantee. 64 MiB comfortably fits the largest
/// legitimate message (a Medium 512×384 RGB frame is ~0.6 MiB) while
/// keeping a malicious or corrupt length prefix from turning into a
/// giant allocation.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// Frame-length guard applied on every decode path, client and server
/// alike (the satellite fix: the guard used to exist only on the server
/// receive path).
pub(crate) fn check_frame_len(len: usize) -> CommResult<()> {
    if len > MAX_FRAME_LEN {
        return Err(CommError::Decode {
            reason: format!("frame of {len} bytes exceeds MAX_FRAME_LEN ({MAX_FRAME_LEN})"),
        });
    }
    Ok(())
}

/// Which field the in situ renderer displays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldChoice {
    /// Pressure/density.
    Density,
    /// Velocity magnitude.
    Speed,
    /// Shear-rate magnitude (wall shear stress basis).
    Shear,
}

impl FieldChoice {
    fn code(self) -> u8 {
        match self {
            FieldChoice::Density => 0,
            FieldChoice::Speed => 1,
            FieldChoice::Shear => 2,
        }
    }
    fn from_code(c: u8) -> CommResult<Self> {
        match c {
            0 => Ok(FieldChoice::Density),
            1 => Ok(FieldChoice::Speed),
            2 => Ok(FieldChoice::Shear),
            _ => Err(CommError::Decode {
                reason: format!("invalid field choice {c}"),
            }),
        }
    }
}

/// A user request to the running simulation (paper §I: "an increase of
/// the visualisation rate, a change of the viewpoint or the extraction
/// of hydrodynamic observables from a user-defined subset of the
/// simulation volume", plus parameter modification for closing the
/// loop).
#[derive(Debug, Clone, PartialEq)]
pub enum SteeringCommand {
    /// Move the camera (eye, target, up as `[x, y, z]`; vertical FOV in
    /// radians).
    SetCamera {
        /// Eye position.
        eye: [f64; 3],
        /// Look-at target.
        target: [f64; 3],
        /// Up hint.
        up: [f64; 3],
        /// Vertical field of view (radians).
        fov_y: f64,
    },
    /// Select the displayed field.
    SetField(FieldChoice),
    /// Render every `n` simulation steps.
    SetVisRate(u32),
    /// Restrict analysis/rendering to a region of interest (lattice
    /// cells, `lo` inclusive / `hi` exclusive).
    SetRoi {
        /// Minimum corner.
        lo: [u32; 3],
        /// Maximum corner.
        hi: [u32; 3],
    },
    /// Change inlet `id`'s prescribed density (pressure steering).
    SetInletPressure {
        /// Inlet id.
        id: u32,
        /// New lattice density.
        rho: f64,
    },
    /// Suspend time stepping (rendering stays available).
    Pause,
    /// Resume time stepping.
    Resume,
    /// Request an immediate render regardless of the vis rate.
    RequestFrame,
    /// Request hydrodynamic observables over the current ROI (or the
    /// whole domain if none is set) — §I's "extraction of hydrodynamic
    /// observables from a user-defined subset of the simulation volume".
    RequestObservables,
    /// Enable or disable measurement-driven adaptive load balancing
    /// mid-run (the `ClosedLoopConfig::adaptive_lb` loop).
    SetAdaptiveLb(bool),
    /// End the run.
    Terminate,
}

impl Wire for SteeringCommand {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            SteeringCommand::SetCamera {
                eye,
                target,
                up,
                fov_y,
            } => {
                w.put_u8(0);
                w.put(eye);
                w.put(target);
                w.put(up);
                w.put_f64(*fov_y);
            }
            SteeringCommand::SetField(f) => {
                w.put_u8(1);
                w.put_u8(f.code());
            }
            SteeringCommand::SetVisRate(n) => {
                w.put_u8(2);
                w.put_u32(*n);
            }
            SteeringCommand::SetRoi { lo, hi } => {
                w.put_u8(3);
                for v in lo.iter().chain(hi.iter()) {
                    w.put_u32(*v);
                }
            }
            SteeringCommand::SetInletPressure { id, rho } => {
                w.put_u8(4);
                w.put_u32(*id);
                w.put_f64(*rho);
            }
            SteeringCommand::Pause => w.put_u8(5),
            SteeringCommand::Resume => w.put_u8(6),
            SteeringCommand::RequestFrame => w.put_u8(7),
            SteeringCommand::Terminate => w.put_u8(8),
            SteeringCommand::RequestObservables => w.put_u8(9),
            SteeringCommand::SetAdaptiveLb(on) => {
                w.put_u8(10);
                w.put_bool(*on);
            }
        }
    }

    fn decode(r: &mut WireReader) -> CommResult<Self> {
        match r.get_u8()? {
            0 => Ok(SteeringCommand::SetCamera {
                eye: r.get()?,
                target: r.get()?,
                up: r.get()?,
                fov_y: r.get_f64()?,
            }),
            1 => Ok(SteeringCommand::SetField(FieldChoice::from_code(
                r.get_u8()?,
            )?)),
            2 => Ok(SteeringCommand::SetVisRate(r.get_u32()?)),
            3 => Ok(SteeringCommand::SetRoi {
                lo: [r.get_u32()?, r.get_u32()?, r.get_u32()?],
                hi: [r.get_u32()?, r.get_u32()?, r.get_u32()?],
            }),
            4 => Ok(SteeringCommand::SetInletPressure {
                id: r.get_u32()?,
                rho: r.get_f64()?,
            }),
            5 => Ok(SteeringCommand::Pause),
            6 => Ok(SteeringCommand::Resume),
            7 => Ok(SteeringCommand::RequestFrame),
            8 => Ok(SteeringCommand::Terminate),
            9 => Ok(SteeringCommand::RequestObservables),
            10 => Ok(SteeringCommand::SetAdaptiveLb(r.get_bool()?)),
            k => Err(CommError::Decode {
                reason: format!("invalid steering command kind {k}"),
            }),
        }
    }
}

/// Status information returned to the client (paper §I: "consistency
/// and validity checks, or estimates on the remaining runtime").
#[derive(Debug, Clone, PartialEq)]
pub struct StatusReport {
    /// Completed simulation steps.
    pub step: u64,
    /// Total mass (conservation monitor).
    pub mass: f64,
    /// Maximum lattice speed (stability monitor).
    pub max_speed: f64,
    /// RMS velocity change per step (convergence monitor).
    pub residual: f64,
    /// Validity problems found (empty = healthy).
    pub problems: Vec<String>,
    /// Estimated steps remaining until the configured end.
    pub eta_steps: u64,
    /// Whether time stepping is currently paused.
    pub paused: bool,
    /// Repartitions applied so far (steered and adaptive).
    pub rebalances: u64,
    /// Most recently measured max/mean step-time imbalance (1.0 when no
    /// adaptive-LB window has completed yet).
    pub lb_imbalance: f64,
    /// Steering clients currently attached: 0 or 1, the endpoint has
    /// one seat.
    pub sessions: u32,
    /// Always 0: there is no frame cache. Kept, with `cache_misses`,
    /// because `benchmark/` spells the twelve fields out (ROADMAP
    /// item 9 drops them).
    pub cache_hits: u64,
    /// Always 0, see `cache_hits`.
    pub cache_misses: u64,
}

impl Wire for StatusReport {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u64(self.step);
        w.put_f64(self.mass);
        w.put_f64(self.max_speed);
        w.put_f64(self.residual);
        w.put(&self.problems);
        w.put_u64(self.eta_steps);
        w.put_bool(self.paused);
        w.put_u64(self.rebalances);
        w.put_f64(self.lb_imbalance);
        w.put_u32(self.sessions);
        w.put_u64(self.cache_hits);
        w.put_u64(self.cache_misses);
    }
    fn decode(r: &mut WireReader) -> CommResult<Self> {
        Ok(StatusReport {
            step: r.get_u64()?,
            mass: r.get_f64()?,
            max_speed: r.get_f64()?,
            residual: r.get_f64()?,
            problems: r.get()?,
            eta_steps: r.get_u64()?,
            paused: r.get_bool()?,
            rebalances: r.get_u64()?,
            lb_imbalance: r.get_f64()?,
            sessions: r.get_u32()?,
            cache_hits: r.get_u64()?,
            cache_misses: r.get_u64()?,
        })
    }
}

/// A rendered frame returned to the client (RGB, 8-bit).
#[derive(Debug, Clone, PartialEq)]
pub struct ImageFrame {
    /// Simulation step the frame shows.
    pub step: u64,
    /// Width in pixels.
    pub width: u32,
    /// Height in pixels.
    pub height: u32,
    /// Row-major RGB bytes (white background).
    pub rgb: Vec<u8>,
}

impl Wire for ImageFrame {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u64(self.step);
        w.put_u32(self.width);
        w.put_u32(self.height);
        w.put_bytes(&self.rgb);
    }
    fn decode(r: &mut WireReader) -> CommResult<Self> {
        let step = r.get_u64()?;
        let width = r.get_u32()?;
        let height = r.get_u32()?;
        // u64 arithmetic: `width * height * 3` in u32 silently wraps for
        // a hostile 65536×65536 header, which would make a mismatched
        // payload pass the check below. Two u32s fit a u64; the `× 3`
        // on top need not, so it saturates.
        let expect = (width as u64 * height as u64).saturating_mul(3);
        check_frame_len(expect.min(usize::MAX as u64) as usize)?;
        let rgb = r.get_bytes()?.to_vec();
        if rgb.len() as u64 != expect {
            return Err(CommError::Decode {
                reason: format!(
                    "image payload {} bytes does not match {}x{} RGB",
                    rgb.len(),
                    width,
                    height
                ),
            });
        }
        Ok(ImageFrame {
            step,
            width,
            height,
            rgb,
        })
    }
}

/// Hydrodynamic observables over a site subset (the ROI, or the whole
/// domain), computed in situ without shipping the fields.
#[derive(Debug, Clone, PartialEq)]
pub struct ObservableReport {
    /// Simulation step of the measurement.
    pub step: u64,
    /// Sites in the subset.
    pub sites: u64,
    /// Mean lattice density over the subset (pressure = cs²ρ).
    pub mean_density: f64,
    /// Mean speed over the subset.
    pub mean_speed: f64,
    /// Maximum speed over the subset.
    pub max_speed: f64,
    /// Maximum wall shear stress over the subset's wall sites (lattice
    /// units).
    pub max_wss: f64,
    /// The ROI used (`None` = whole domain).
    pub roi: Option<([u32; 3], [u32; 3])>,
}

impl Wire for ObservableReport {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u64(self.step);
        w.put_u64(self.sites);
        w.put_f64(self.mean_density);
        w.put_f64(self.mean_speed);
        w.put_f64(self.max_speed);
        w.put_f64(self.max_wss);
        match self.roi {
            None => w.put_u8(0),
            Some((lo, hi)) => {
                w.put_u8(1);
                for v in lo.iter().chain(hi.iter()) {
                    w.put_u32(*v);
                }
            }
        }
    }
    fn decode(r: &mut WireReader) -> CommResult<Self> {
        let step = r.get_u64()?;
        let sites = r.get_u64()?;
        let mean_density = r.get_f64()?;
        let mean_speed = r.get_f64()?;
        let max_speed = r.get_f64()?;
        let max_wss = r.get_f64()?;
        let roi = match r.get_u8()? {
            0 => None,
            1 => Some((
                [r.get_u32()?, r.get_u32()?, r.get_u32()?],
                [r.get_u32()?, r.get_u32()?, r.get_u32()?],
            )),
            k => {
                return Err(CommError::Decode {
                    reason: format!("invalid roi flag {k}"),
                })
            }
        };
        Ok(ObservableReport {
            step,
            sites,
            mean_density,
            mean_speed,
            max_speed,
            max_wss,
            roi,
        })
    }
}

/// A framed message from the simulation to the client.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerMessage {
    /// A status report.
    Status(StatusReport),
    /// A rendered image.
    Image(ImageFrame),
    /// In situ observables over the ROI.
    Observables(ObservableReport),
}

impl Wire for ServerMessage {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            ServerMessage::Status(s) => {
                w.put_u8(0);
                s.encode(w);
            }
            ServerMessage::Image(i) => {
                w.put_u8(1);
                i.encode(w);
            }
            ServerMessage::Observables(o) => {
                w.put_u8(2);
                o.encode(w);
            }
        }
    }
    fn decode(r: &mut WireReader) -> CommResult<Self> {
        match r.get_u8()? {
            0 => Ok(ServerMessage::Status(StatusReport::decode(r)?)),
            1 => Ok(ServerMessage::Image(ImageFrame::decode(r)?)),
            2 => Ok(ServerMessage::Observables(ObservableReport::decode(r)?)),
            k => Err(CommError::Decode {
                reason: format!("invalid server message kind {k}"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let b = v.to_bytes();
        assert_eq!(T::from_bytes(b).unwrap(), v);
    }

    #[test]
    fn all_commands_round_trip() {
        round_trip(SteeringCommand::SetCamera {
            eye: [1.0, 2.0, 3.0],
            target: [0.0, 0.0, 0.0],
            up: [0.0, 0.0, 1.0],
            fov_y: 0.8,
        });
        round_trip(SteeringCommand::SetField(FieldChoice::Shear));
        round_trip(SteeringCommand::SetVisRate(25));
        round_trip(SteeringCommand::SetRoi {
            lo: [0, 1, 2],
            hi: [10, 11, 12],
        });
        round_trip(SteeringCommand::SetInletPressure { id: 0, rho: 1.02 });
        round_trip(SteeringCommand::Pause);
        round_trip(SteeringCommand::Resume);
        round_trip(SteeringCommand::RequestFrame);
        round_trip(SteeringCommand::RequestObservables);
        round_trip(SteeringCommand::SetAdaptiveLb(true));
        round_trip(SteeringCommand::SetAdaptiveLb(false));
        round_trip(SteeringCommand::Terminate);
    }

    #[test]
    fn status_and_image_round_trip() {
        round_trip(StatusReport {
            step: 1000,
            mass: 12345.6,
            max_speed: 0.08,
            residual: 1e-7,
            problems: vec!["example".into()],
            eta_steps: 500,
            paused: false,
            rebalances: 2,
            lb_imbalance: 1.37,
            sessions: 42,
            cache_hits: 7,
            cache_misses: 3,
        });
        round_trip(ServerMessage::Image(ImageFrame {
            step: 7,
            width: 2,
            height: 3,
            rgb: vec![0; 18],
        }));
        round_trip(ServerMessage::Observables(ObservableReport {
            step: 11,
            sites: 512,
            mean_density: 1.002,
            mean_speed: 0.03,
            max_speed: 0.09,
            max_wss: 1.5e-3,
            roi: Some(([1, 2, 3], [4, 5, 6])),
        }));
        round_trip(ServerMessage::Observables(ObservableReport {
            step: 0,
            sites: 0,
            mean_density: 0.0,
            mean_speed: 0.0,
            max_speed: 0.0,
            max_wss: 0.0,
            roi: None,
        }));
    }

    #[test]
    fn image_size_mismatch_rejected() {
        let bad = ImageFrame {
            step: 0,
            width: 4,
            height: 4,
            rgb: vec![0; 10],
        };
        let b = bad.to_bytes();
        assert!(ImageFrame::from_bytes(b).is_err());
    }

    #[test]
    fn garbage_kind_rejected() {
        let mut w = hemelb_parallel::WireWriter::new();
        w.put_u8(99);
        assert!(SteeringCommand::from_bytes(w.finish()).is_err());
    }

    #[test]
    fn truncated_frames_are_errors_not_panics() {
        // Every proper prefix of a valid encoding must decode to an
        // error (a half-received TCP frame shows up exactly like this).
        let cmd = SteeringCommand::SetCamera {
            eye: [1.0, 2.0, 3.0],
            target: [4.0, 5.0, 6.0],
            up: [0.0, 0.0, 1.0],
            fov_y: 0.7,
        };
        let full = cmd.to_bytes();
        for n in 0..full.len() {
            let prefix = bytes::Bytes::from(full[..n].to_vec());
            assert!(
                SteeringCommand::from_bytes(prefix).is_err(),
                "prefix of {n} bytes must not decode"
            );
        }
        let msg = ServerMessage::Status(StatusReport {
            step: 9,
            mass: 1.0,
            max_speed: 0.1,
            residual: 1e-6,
            problems: vec!["p".into()],
            eta_steps: 3,
            paused: true,
            rebalances: 1,
            lb_imbalance: 1.2,
            sessions: 1,
            cache_hits: 0,
            cache_misses: 0,
        });
        let full = msg.to_bytes();
        for n in 0..full.len() {
            let prefix = bytes::Bytes::from(full[..n].to_vec());
            assert!(ServerMessage::from_bytes(prefix).is_err());
        }
    }

    #[test]
    fn bad_tags_are_errors_on_both_directions() {
        for kind in [11u8, 12, 42, 255] {
            let mut w = hemelb_parallel::WireWriter::new();
            w.put_u8(kind);
            assert!(SteeringCommand::from_bytes(w.finish()).is_err());
        }
        for kind in [3u8, 4, 77, 255] {
            let mut w = hemelb_parallel::WireWriter::new();
            w.put_u8(kind);
            assert!(ServerMessage::from_bytes(w.finish()).is_err());
        }
    }

    #[test]
    fn max_frame_len_guards_every_decode_direction() {
        assert!(check_frame_len(MAX_FRAME_LEN).is_ok());
        assert!(check_frame_len(MAX_FRAME_LEN + 1).is_err());
        // Server → client: an image header whose dimensions imply a
        // payload past the ceiling fails before looking at the bytes —
        // including the 65536×65536 header that used to wrap u32
        // arithmetic to zero.
        for (w, h) in [(65536u32, 65536u32), (1 << 16, 1 << 10)] {
            let mut wr = hemelb_parallel::WireWriter::new();
            wr.put_u8(1); // ServerMessage::Image
            wr.put_u64(0);
            wr.put_u32(w);
            wr.put_u32(h);
            wr.put_u64(0); // empty payload: only the guard can reject
            assert!(
                ServerMessage::from_bytes(wr.finish()).is_err(),
                "{w}x{h} header must be rejected"
            );
        }
    }

    #[test]
    fn oversized_length_prefix_is_an_error_not_an_allocation() {
        // An image frame whose pixel-payload length prefix claims far
        // more bytes than the frame carries: must fail cleanly, not
        // attempt a huge allocation or panic.
        let mut w = hemelb_parallel::WireWriter::new();
        w.put_u8(1); // ServerMessage::Image
        w.put_u64(0); // step
        w.put_u32(2); // width
        w.put_u32(2); // height
        w.put_u64(u64::MAX / 2); // absurd RGB byte count
        assert!(ServerMessage::from_bytes(w.finish()).is_err());

        // Same for the problems list of a status report.
        let mut w = hemelb_parallel::WireWriter::new();
        w.put_u8(0); // ServerMessage::Status
        w.put_u64(1); // step
        w.put_f64(1.0); // mass
        w.put_f64(0.1); // max_speed
        w.put_f64(0.0); // residual
        w.put_u64(u64::MAX); // absurd problems count
        assert!(ServerMessage::from_bytes(w.finish()).is_err());
    }
}
