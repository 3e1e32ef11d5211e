//! Message tags.
//!
//! Tags serve two purposes: (i) MPI-style matching of point-to-point
//! messages, and (ii) *attribution* of traffic to a subsystem so that the
//! experiment harness can report, per technique, how many bytes each part
//! of the co-design moved (the paper's Table I "communication cost"
//! column). Attribution is carried by [`TagClass`](crate::stats::TagClass),
//! derived from the tag's numeric range.

/// A message tag. The numeric space is partitioned into ranges, one per
/// subsystem; see [`Tag::class`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tag(pub u32);

impl Tag {
    // ----- reserved internal ranges -------------------------------------
    /// Tags used by collective implementations (barrier, reduce, ...).
    pub const COLLECTIVE_BASE: u32 = 0x0100_0000;
    /// Tags used by the LB solver's halo exchange.
    pub const HALO_BASE: u32 = 0x0200_0000;
    /// Tags used by geometry loading / redistribution (pre-processing).
    pub const GEOMETRY_BASE: u32 = 0x0300_0000;
    /// Tags used by partition migration (repartitioning).
    pub const MIGRATION_BASE: u32 = 0x0400_0000;
    /// Tags used by visualisation algorithms moving *simulation data*
    /// (halo strips, particle hand-off, ...).
    pub const VIS_BASE: u32 = 0x0500_0000;
    /// Tags used by image compositing (result reduction, not data
    /// movement — the distinction Table I's "communication cost" rests
    /// on).
    pub const COMPOSITE_BASE: u32 = 0x0580_0000;
    /// Tags used by the steering protocol.
    pub const STEERING_BASE: u32 = 0x0600_0000;
    /// First tag value free for application use.
    pub const USER_BASE: u32 = 0x0700_0000;

    /// A collective-internal tag with the given offset.
    #[inline]
    pub const fn collective(offset: u32) -> Self {
        Tag(Self::COLLECTIVE_BASE + offset)
    }

    /// A halo-exchange tag with the given offset (e.g. direction index).
    #[inline]
    pub const fn halo(offset: u32) -> Self {
        Tag(Self::HALO_BASE + offset)
    }

    /// A geometry/pre-processing tag with the given offset.
    #[inline]
    pub const fn geometry(offset: u32) -> Self {
        Tag(Self::GEOMETRY_BASE + offset)
    }

    /// A data-migration tag with the given offset.
    #[inline]
    pub const fn migration(offset: u32) -> Self {
        Tag(Self::MIGRATION_BASE + offset)
    }

    /// A visualisation (simulation-data) tag with the given offset.
    #[inline]
    pub const fn vis(offset: u32) -> Self {
        Tag(Self::VIS_BASE + offset)
    }

    /// An image-compositing tag with the given offset.
    #[inline]
    pub const fn composite(offset: u32) -> Self {
        Tag(Self::COMPOSITE_BASE + offset)
    }

    /// A steering tag with the given offset.
    #[inline]
    pub const fn steering(offset: u32) -> Self {
        Tag(Self::STEERING_BASE + offset)
    }

    /// A user/application tag with the given offset.
    #[inline]
    pub const fn user(offset: u32) -> Self {
        Tag(Self::USER_BASE + offset)
    }

    /// The traffic class this tag belongs to, for accounting.
    #[inline]
    pub fn class(self) -> crate::stats::TagClass {
        use crate::stats::TagClass;
        match self.0 {
            x if x >= Self::USER_BASE => TagClass::User,
            x if x >= Self::STEERING_BASE => TagClass::Steering,
            x if x >= Self::COMPOSITE_BASE => TagClass::Compositing,
            x if x >= Self::VIS_BASE => TagClass::Visualisation,
            x if x >= Self::MIGRATION_BASE => TagClass::Migration,
            x if x >= Self::GEOMETRY_BASE => TagClass::Geometry,
            x if x >= Self::HALO_BASE => TagClass::Halo,
            x if x >= Self::COLLECTIVE_BASE => TagClass::Collective,
            _ => TagClass::User,
        }
    }
}

impl From<u32> for Tag {
    fn from(v: u32) -> Self {
        Tag(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TagClass;

    #[test]
    fn tag_classes_map_to_ranges() {
        assert_eq!(Tag::collective(3).class(), TagClass::Collective);
        assert_eq!(Tag::halo(0).class(), TagClass::Halo);
        assert_eq!(Tag::geometry(9).class(), TagClass::Geometry);
        assert_eq!(Tag::migration(1).class(), TagClass::Migration);
        assert_eq!(Tag::vis(7).class(), TagClass::Visualisation);
        assert_eq!(Tag::composite(2).class(), TagClass::Compositing);
        assert_eq!(Tag::steering(2).class(), TagClass::Steering);
        assert_eq!(Tag::user(0).class(), TagClass::User);
        assert_eq!(Tag(5).class(), TagClass::User);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)] // the ordering of the bases IS the invariant
    fn ranges_are_ordered_and_disjoint() {
        assert!(Tag::COLLECTIVE_BASE < Tag::HALO_BASE);
        assert!(Tag::HALO_BASE < Tag::GEOMETRY_BASE);
        assert!(Tag::GEOMETRY_BASE < Tag::MIGRATION_BASE);
        assert!(Tag::MIGRATION_BASE < Tag::VIS_BASE);
        assert!(Tag::VIS_BASE < Tag::COMPOSITE_BASE);
        assert!(Tag::COMPOSITE_BASE < Tag::STEERING_BASE);
        assert!(Tag::STEERING_BASE < Tag::USER_BASE);
    }
}
