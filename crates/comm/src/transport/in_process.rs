//! The default backend: ranks are OS threads in one address space, and
//! an envelope "travels" by moving its boxed value into the destination
//! rank's [`Mailbox`]. No serialization ever happens — identical
//! communication *structure* to MPI (who sends what to whom, and how
//! many bytes it would be on a wire) without the packing cost.
//!
//! The whole backend is one mailbox per rank: push, pop, close.

use std::sync::Arc;

use super::{Envelope, Mailbox, PeerGone, Transport};
use crate::runtime::Rank;

/// In-process endpoint of one rank.
pub(crate) struct InProcess {
    rank: Rank,
    /// peers[dst]: rank `dst`'s mailbox (peers[rank] is our own inbox).
    peers: Vec<Arc<Mailbox>>,
}

impl InProcess {
    /// Build the world: one shared mailbox vector, one endpoint per rank.
    pub(crate) fn world(nranks: usize) -> Vec<Arc<dyn Transport>> {
        let mailboxes: Vec<Arc<Mailbox>> = (0..nranks).map(|_| Mailbox::new(nranks)).collect();
        (0..nranks)
            .map(|rank| {
                Arc::new(InProcess {
                    rank,
                    peers: mailboxes.clone(),
                }) as Arc<dyn Transport>
            })
            .collect()
    }

    #[inline]
    fn inbox(&self) -> &Mailbox {
        &self.peers[self.rank]
    }
}

impl Transport for InProcess {
    fn rank(&self) -> Rank {
        self.rank
    }

    fn size(&self) -> usize {
        self.peers.len()
    }

    fn post(&self, dst: Rank, envelope: Envelope) -> Result<(), PeerGone> {
        self.peers[dst].push(self.rank, envelope)
    }

    fn recv_from(&self, src: Rank) -> Result<Envelope, PeerGone> {
        self.inbox().recv(src)
    }

    fn shutdown(&self) {
        // Refuse further deliveries to this rank and tell every peer we
        // are gone, so their blocked receives fail instead of hanging —
        // the channel-disconnect semantics the runtime has always had.
        self.inbox().mark_owner_gone();
        for peer in &self.peers {
            peer.close(self.rank);
        }
    }
}
