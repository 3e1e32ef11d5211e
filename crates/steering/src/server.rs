//! The replicated steering state every rank applies the command stream
//! to. The master-side endpoint that produces that stream is
//! [`crate::gateway::SessionGateway`].

use crate::protocol::{FieldChoice, SteeringCommand};

/// Steering-relevant state, replicated on every rank by broadcasting
/// the command stream (so the whole SPMD job stays consistent).
#[derive(Debug, Clone, PartialEq)]
pub struct SteeringState {
    /// Camera eye.
    pub eye: [f64; 3],
    /// Camera target.
    pub target: [f64; 3],
    /// Camera up hint.
    pub up: [f64; 3],
    /// Vertical FOV (radians).
    pub fov_y: f64,
    /// Displayed field.
    pub field: FieldChoice,
    /// Render every this many steps.
    pub vis_rate: u32,
    /// Optional region of interest (lattice cells).
    pub roi: Option<([u32; 3], [u32; 3])>,
    /// Whether stepping is paused.
    pub paused: bool,
    /// Whether a frame was explicitly requested.
    pub frame_requested: bool,
    /// Whether an observable extraction was requested.
    pub observables_requested: bool,
    /// Whether termination was requested.
    pub terminate: bool,
    /// Pending inlet-pressure changes `(id, rho)`.
    pub pressure_changes: Vec<(u32, f64)>,
    /// Client override for adaptive load balancing: `None` until a
    /// client sends [`SteeringCommand::SetAdaptiveLb`], then the last
    /// value sent. The closed loop combines this with its configured
    /// default (`ClosedLoopConfig::adaptive_lb`).
    pub adaptive_lb_override: Option<bool>,
    /// Domain shape in lattice cells; ROIs are validated against it.
    pub domain: [u32; 3],
    /// Notices about rejected commands, drained into the next status
    /// report's `problems` list.
    pub rejections: Vec<String>,
}

impl SteeringState {
    /// Defaults: camera along −y, speed field, render every 50 steps.
    pub fn new(domain_shape: [usize; 3]) -> Self {
        let c = [
            domain_shape[0] as f64 / 2.0,
            domain_shape[1] as f64 / 2.0,
            domain_shape[2] as f64 / 2.0,
        ];
        let radius = (c[0] * c[0] + c[1] * c[1] + c[2] * c[2]).sqrt();
        SteeringState {
            eye: [c[0], c[1] - 3.0 * radius, c[2]],
            target: c,
            up: [0.0, 0.0, 1.0],
            fov_y: 45f64.to_radians(),
            field: FieldChoice::Speed,
            vis_rate: 50,
            roi: None,
            paused: false,
            frame_requested: false,
            observables_requested: false,
            terminate: false,
            pressure_changes: Vec::new(),
            adaptive_lb_override: None,
            domain: [
                domain_shape[0] as u32,
                domain_shape[1] as u32,
                domain_shape[2] as u32,
            ],
            rejections: Vec::new(),
        }
    }

    /// Apply one command.
    pub fn apply(&mut self, cmd: &SteeringCommand) {
        match cmd {
            SteeringCommand::SetCamera {
                eye,
                target,
                up,
                fov_y,
            } => {
                self.eye = *eye;
                self.target = *target;
                self.up = *up;
                self.fov_y = *fov_y;
            }
            SteeringCommand::SetField(f) => self.field = *f,
            SteeringCommand::SetVisRate(n) => self.vis_rate = (*n).max(1),
            SteeringCommand::SetRoi { lo, hi } => {
                // Clamp to the domain, then reject empty or inverted
                // boxes instead of silently analysing nothing. The old
                // behaviour accepted any box verbatim, so an ROI past
                // the domain (or with lo ≥ hi) produced zero-site
                // observables with no indication why.
                let lo = [
                    lo[0].min(self.domain[0]),
                    lo[1].min(self.domain[1]),
                    lo[2].min(self.domain[2]),
                ];
                let hi = [
                    hi[0].min(self.domain[0]),
                    hi[1].min(self.domain[1]),
                    hi[2].min(self.domain[2]),
                ];
                if (0..3).all(|a| lo[a] < hi[a]) {
                    self.roi = Some((lo, hi));
                } else {
                    self.rejections.push(format!(
                        "rejected ROI {lo:?}..{hi:?}: empty or inverted after clamping \
                         to domain {:?}; keeping {:?}",
                        self.domain, self.roi
                    ));
                }
            }
            SteeringCommand::SetInletPressure { id, rho } => {
                self.pressure_changes.push((*id, *rho));
            }
            SteeringCommand::Pause => self.paused = true,
            SteeringCommand::Resume => self.paused = false,
            SteeringCommand::RequestFrame => self.frame_requested = true,
            SteeringCommand::RequestObservables => self.observables_requested = true,
            SteeringCommand::SetAdaptiveLb(on) => self.adaptive_lb_override = Some(*on),
            SteeringCommand::Terminate => self.terminate = true,
            // Session arbitration, not simulation state: the gateway
            // consumes this before commands reach the replicated state.
            SteeringCommand::ReleaseDriver => {}
        }
    }

    /// Drain and return pending pressure changes.
    pub fn take_pressure_changes(&mut self) -> Vec<(u32, f64)> {
        std::mem::take(&mut self.pressure_changes)
    }

    /// Drain and return pending rejection notices (reported to the
    /// client via the next status report's `problems`).
    pub fn take_rejections(&mut self) -> Vec<String> {
        std::mem::take(&mut self.rejections)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_applies_commands() {
        let mut st = SteeringState::new([32, 16, 16]);
        assert!(!st.paused);
        st.apply(&SteeringCommand::Pause);
        assert!(st.paused);
        st.apply(&SteeringCommand::Resume);
        assert!(!st.paused);
        st.apply(&SteeringCommand::SetVisRate(0));
        assert_eq!(st.vis_rate, 1, "vis rate clamps to 1");
        st.apply(&SteeringCommand::SetField(FieldChoice::Density));
        assert_eq!(st.field, FieldChoice::Density);
        st.apply(&SteeringCommand::SetInletPressure { id: 0, rho: 1.03 });
        assert_eq!(st.take_pressure_changes(), vec![(0, 1.03)]);
        assert!(st.take_pressure_changes().is_empty(), "drained");
        st.apply(&SteeringCommand::Terminate);
        assert!(st.terminate);
    }

    #[test]
    fn valid_roi_is_accepted_and_clamped() {
        let mut st = SteeringState::new([32, 16, 16]);
        st.apply(&SteeringCommand::SetRoi {
            lo: [0, 0, 0],
            hi: [16, 16, 16],
        });
        assert_eq!(st.roi, Some(([0, 0, 0], [16, 16, 16])));
        assert!(st.take_rejections().is_empty());
        // A box poking past the domain is clamped, not rejected.
        st.apply(&SteeringCommand::SetRoi {
            lo: [8, 0, 0],
            hi: [1000, 1000, 1000],
        });
        assert_eq!(st.roi, Some(([8, 0, 0], [32, 16, 16])));
        assert!(st.take_rejections().is_empty());
    }

    #[test]
    fn inverted_or_empty_roi_is_rejected_and_reported() {
        let mut st = SteeringState::new([32, 16, 16]);
        let good = ([0, 0, 0], [8, 8, 8]);
        st.apply(&SteeringCommand::SetRoi {
            lo: good.0,
            hi: good.1,
        });
        // Inverted: lo > hi on the x axis.
        st.apply(&SteeringCommand::SetRoi {
            lo: [10, 0, 0],
            hi: [5, 16, 16],
        });
        assert_eq!(st.roi, Some(good), "previous valid ROI survives");
        // Empty: lo == hi.
        st.apply(&SteeringCommand::SetRoi {
            lo: [4, 4, 4],
            hi: [4, 8, 8],
        });
        // Entirely outside: clamping makes it empty.
        st.apply(&SteeringCommand::SetRoi {
            lo: [100, 0, 0],
            hi: [200, 16, 16],
        });
        assert_eq!(st.roi, Some(good));
        let rejections = st.take_rejections();
        assert_eq!(rejections.len(), 3);
        for r in &rejections {
            assert!(r.contains("rejected ROI"), "{r}");
        }
        assert!(st.take_rejections().is_empty(), "drained");
    }
}
