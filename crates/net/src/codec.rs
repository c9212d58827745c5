//! [`Wire`] implementations for the protocol payloads shipped by
//! `uba-core`, so every bundled algorithm runs over the transport out of
//! the box.
//!
//! Each enum gets a one-byte variant tag followed by the variant's fields;
//! unknown tags are malformed input. User-defined payload types only need
//! their own `Wire` impl — the transport is generic over `P::Msg: Wire`.

use uba_core::consensus::ConsensusMsg;
use uba_core::ordering::OrderMsg;
use uba_core::parallel::ParMsg;
use uba_core::reliable::RbMsg;
use uba_core::OrderedF64;

use crate::wire::Wire;

/// Implements [`Wire`] for a payload enum from one table that names each
/// variant once: its one-byte tag, then its fields, which follow the tag on
/// the wire in the order listed. Any other tag is malformed input.
macro_rules! wire_enum {
    ($name:ident<$($param:ident),+> {
        $($tag:literal => $variant:ident $(($($field:ident),+))?,)+
    }) => {
        impl<$($param: Wire),+> Wire for $name<$($param),+> {
            fn encode(&self, out: &mut Vec<u8>) {
                match self {
                    $($name::$variant $(($($field),+))? => {
                        out.push($tag);
                        $($($field.encode(out);)+)?
                    })+
                }
            }

            fn decode(input: &mut &[u8]) -> Option<Self> {
                Some(match u8::decode(input)? {
                    $($tag => $name::$variant $(($({
                        let $field = Wire::decode(input)?;
                        $field
                    }),+))?,)+
                    _ => return None,
                })
            }
        }
    };
}

wire_enum!(ConsensusMsg<V> {
    0 => RotorInit,
    1 => RotorEcho(node),
    2 => Opinion(v),
    3 => Input(v),
    4 => Prefer(v),
    5 => StrongPrefer(v),
});

wire_enum!(RbMsg<M> {
    0 => Payload(m),
    1 => Present,
    2 => Echo(m),
});

wire_enum!(ParMsg<I, V> {
    0 => RotorInit,
    1 => RotorEcho(node),
    2 => Opinion(id, v),
    3 => Input(id, v),
    4 => Prefer(id, v),
    5 => NoPreference(id),
    6 => StrongPrefer(id, v),
    7 => NoStrongPreference(id),
});

wire_enum!(OrderMsg<V> {
    0 => Present,
    1 => Ack(round),
    2 => Absent,
    3 => Event(v, round),
    4 => Wave(wave, msg),
});

/// `OrderedF64` travels as the IEEE-754 bit pattern of its float. Decoding
/// re-validates through [`OrderedF64::new`], so a NaN bit pattern on the
/// wire is malformed input — the invariant cannot be smuggled past the
/// constructor by a remote peer.
impl Wire for OrderedF64 {
    fn encode(&self, out: &mut Vec<u8>) {
        self.get().encode(out);
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        OrderedF64::new(f64::decode(input)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uba_sim::NodeId;

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = value.to_bytes();
        assert_eq!(T::from_bytes(&bytes).as_ref(), Some(&value));
    }

    #[test]
    fn consensus_messages_round_trip() {
        round_trip(ConsensusMsg::<u64>::RotorInit);
        round_trip(ConsensusMsg::<u64>::RotorEcho(NodeId::new(12)));
        round_trip(ConsensusMsg::Opinion(3u64));
        round_trip(ConsensusMsg::Input(0u64));
        round_trip(ConsensusMsg::Prefer(9u64));
        round_trip(ConsensusMsg::StrongPrefer(u64::MAX));
    }

    #[test]
    fn reliable_broadcast_messages_round_trip() {
        round_trip(RbMsg::Payload(String::from("m")));
        round_trip(RbMsg::<String>::Present);
        round_trip(RbMsg::Echo(String::from("m")));
    }

    #[test]
    fn ordered_f64_round_trips_and_rejects_nan() {
        round_trip(OrderedF64::new(0.5).unwrap());
        round_trip(OrderedF64::new(-0.0).unwrap());
        let nan_bits = f64::NAN.to_bits().to_bytes();
        assert_eq!(OrderedF64::from_bytes(&nan_bits), None);
    }

    #[test]
    fn parallel_consensus_messages_round_trip() {
        round_trip(ParMsg::<NodeId, u64>::RotorInit);
        round_trip(ParMsg::<NodeId, u64>::RotorEcho(NodeId::new(3)));
        round_trip(ParMsg::<NodeId, u64>::Opinion(NodeId::new(1), Some(7)));
        round_trip(ParMsg::<NodeId, u64>::Opinion(NodeId::new(1), None));
        round_trip(ParMsg::<NodeId, u64>::Input(NodeId::new(2), 9));
        round_trip(ParMsg::<NodeId, u64>::Prefer(NodeId::new(2), None));
        round_trip(ParMsg::<NodeId, u64>::NoPreference(NodeId::new(4)));
        round_trip(ParMsg::<NodeId, u64>::StrongPrefer(NodeId::new(5), Some(0)));
        round_trip(ParMsg::<NodeId, u64>::NoStrongPreference(NodeId::new(6)));
    }

    #[test]
    fn ordering_messages_round_trip() {
        round_trip(OrderMsg::<u64>::Present);
        round_trip(OrderMsg::<u64>::Ack(12));
        round_trip(OrderMsg::<u64>::Absent);
        round_trip(OrderMsg::<u64>::Event(42, 3));
        round_trip(OrderMsg::<u64>::Wave(
            7,
            ParMsg::StrongPrefer(NodeId::new(1), Some(8)),
        ));
        // The service's batch payloads nest a vector inside the event.
        round_trip(OrderMsg::<Vec<u64>>::Event(vec![1, 2, 3], 5));
    }

    /// The wire format itself: the tag byte and field bytes of one value of
    /// every variant (integers little-endian, `Option` a 0/1 byte before
    /// its value). A changed tag or field order breaks live clusters of
    /// mixed builds, so it must fail here, not only in a round trip.
    #[test]
    fn every_variant_encodes_to_pinned_bytes() {
        let id = NodeId::new(7);
        const ID: [u8; 8] = [7, 0, 0, 0, 0, 0, 0, 0];
        const ACK: [u8; 8] = [3, 0, 0, 0, 0, 0, 0, 0];
        let pins: [(Vec<u8>, Vec<u8>); 22] = [
            (ConsensusMsg::<u8>::RotorInit.to_bytes(), vec![0]),
            (
                ConsensusMsg::<u8>::RotorEcho(id).to_bytes(),
                [&[1][..], &ID].concat(),
            ),
            (ConsensusMsg::Opinion(3u8).to_bytes(), vec![2, 3]),
            (ConsensusMsg::Input(4u8).to_bytes(), vec![3, 4]),
            (ConsensusMsg::Prefer(5u8).to_bytes(), vec![4, 5]),
            (ConsensusMsg::StrongPrefer(6u8).to_bytes(), vec![5, 6]),
            (RbMsg::Payload(9u8).to_bytes(), vec![0, 9]),
            (RbMsg::<u8>::Present.to_bytes(), vec![1]),
            (RbMsg::Echo(9u8).to_bytes(), vec![2, 9]),
            (ParMsg::<u8, u8>::RotorInit.to_bytes(), vec![0]),
            (
                ParMsg::<u8, u8>::RotorEcho(id).to_bytes(),
                [&[1][..], &ID].concat(),
            ),
            (ParMsg::Opinion(1u8, Some(2u8)).to_bytes(), vec![2, 1, 1, 2]),
            (ParMsg::Input(1u8, 2u8).to_bytes(), vec![3, 1, 2]),
            (ParMsg::<u8, u8>::Prefer(1, None).to_bytes(), vec![4, 1, 0]),
            (ParMsg::<u8, u8>::NoPreference(1).to_bytes(), vec![5, 1]),
            (
                ParMsg::StrongPrefer(1u8, Some(2u8)).to_bytes(),
                vec![6, 1, 1, 2],
            ),
            (
                ParMsg::<u8, u8>::NoStrongPreference(1).to_bytes(),
                vec![7, 1],
            ),
            (OrderMsg::<u8>::Present.to_bytes(), vec![0]),
            (OrderMsg::<u8>::Ack(3).to_bytes(), [&[1][..], &ACK].concat()),
            (OrderMsg::<u8>::Absent.to_bytes(), vec![2]),
            (
                OrderMsg::Event(9u8, 3).to_bytes(),
                [&[3, 9][..], &ACK].concat(),
            ),
            (
                OrderMsg::<u8>::Wave(1, ParMsg::NoPreference(id)).to_bytes(),
                [&[4, 1, 0, 0, 0, 0, 0, 0, 0, 5][..], &ID].concat(),
            ),
        ];
        for (i, (encoded, pinned)) in pins.iter().enumerate() {
            assert_eq!(encoded, pinned, "pin #{i}");
        }
    }

    #[test]
    fn unknown_variant_tags_are_rejected() {
        assert_eq!(ConsensusMsg::<u64>::from_bytes(&[9]), None);
        assert_eq!(RbMsg::<u64>::from_bytes(&[9]), None);
        assert_eq!(ParMsg::<NodeId, u64>::from_bytes(&[8]), None);
        assert_eq!(OrderMsg::<u64>::from_bytes(&[5]), None);
    }
}
