package legacy

import "encoding/binary"

// s3c59x: the kit's 3Com-class donor driver.  Busmaster-DMA style: it
// reads the chip's receive status first, then copies each waiting frame
// into an skbuff of exactly its length, and transmits straight out of
// packet memory with no staging copy.
//
// This driver also carries the habit §4.7.8 warns about: it keeps its
// descriptor ring in host memory and reaches it by *manufacturing a
// pointer from a physical address* (PhysToVirt) — the "all physical
// memory is direct-mapped" assumption that makes some Linux drivers
// unusable in client OSes without such a mapping.

const (
	s3c59xVendor = 0x10b7
	s3c59xDevice = 0x5950

	s3cRingEntries = 16
	s3cRxBufSize   = 1536
)

type s3c59xPriv struct {
	ring *KBuf // descriptor ring, accessed via PhysToVirt
}

// S3C59XProbe examines one candidate chip and registers a NetDevice when
// it answers to the 3Com IDs.
func S3C59XProbe(k *Kernel, chip EtherChip, irq int, name string) *NetDevice {
	if v, d := chip.IDs(); v != s3c59xVendor || d != s3c59xDevice {
		return nil
	}
	dev := &NetDevice{
		Kern: k,
		Name: name,
		MAC:  chip.MacAddr(),
		IRQ:  irq,
		MTU:  1500,
		Chip: chip,
		Priv: &s3c59xPriv{},
	}
	dev.Open = s3c59xOpen
	dev.Stop = s3c59xStop
	dev.HardStartXmit = s3c59xXmit
	if _, ok := chip.(GatherChip); ok {
		// The 3Com download engine fetches a frame from a fragment
		// list; advertise it so the glue may skip the flatten copy.
		dev.Features |= FeatSG
	}
	k.RegisterNetdev(dev)
	k.Printk("s3c59x: %s at irq %d\n", name, irq)
	return dev
}

func s3c59xOpen(dev *NetDevice) error {
	k := dev.Kern
	priv := dev.Priv.(*s3c59xPriv)
	priv.ring = k.Kmalloc(s3cRingEntries*8, GFPKernel)
	if priv.ring == nil {
		return ENOMEM
	}
	// Initialize the descriptor ring through the direct physical map —
	// deliberately NOT through priv.ring.Data, because that is how the
	// real driver did it (§4.7.8).
	ring := k.PhysToVirt(priv.ring.Addr, s3cRingEntries*8)
	for i := 0; i < s3cRingEntries; i++ {
		binary.LittleEndian.PutUint32(ring[i*8:], 0x80000000)     // OWN bit
		binary.LittleEndian.PutUint32(ring[i*8+4:], s3cRxBufSize) // buffer length
	}
	if err := k.RequestIRQ(dev.IRQ, func(int) { s3c59xInterrupt(dev) }, dev.Name); err != nil {
		k.Kfree(priv.ring)
		priv.ring = nil
		return err
	}
	dev.opened = true
	return nil
}

func s3c59xStop(dev *NetDevice) error {
	if !dev.opened {
		return nil
	}
	dev.Kern.FreeIRQ(dev.IRQ)
	priv := dev.Priv.(*s3c59xPriv)
	if priv.ring != nil {
		dev.Kern.Kfree(priv.ring)
		priv.ring = nil
	}
	dev.opened = false
	return nil
}

// s3c59xInterrupt drains the receive ring as vortex_rx does: it pops a
// frame before it allocates, so an empty ring costs nothing, and each
// frame costs one allocation of exactly its length and one copy.
func s3c59xInterrupt(dev *NetDevice) {
	k := dev.Kern
	priv := dev.Priv.(*s3c59xPriv)
	for {
		frame := dev.Chip.RxFrame()
		if frame == nil {
			return
		}
		n := len(frame)
		skb := k.AllocSKB(n)
		if skb == nil {
			// Out of buffer memory: the frame is consumed and counted.
			dev.Stats.RxDropped++
			continue
		}
		copy(skb.Put(n), frame)
		skb.Dev = dev
		dev.Stats.RxPackets++
		dev.Stats.RxBytes += uint64(n)
		// Advance the descriptor ring through the direct map.
		if priv.ring != nil {
			ring := k.PhysToVirt(priv.ring.Addr, s3cRingEntries*8)
			idx := int(dev.Stats.RxPackets) % s3cRingEntries
			binary.LittleEndian.PutUint32(ring[idx*8:], 0x80000000|uint32(n))
		}
		if k.NetifRx != nil {
			k.NetifRx(skb)
		} else {
			skb.Free()
		}
	}
}

// s3c59xXmit transmits straight from packet memory: no staging copy.
func s3c59xXmit(skb *SKBuff, dev *NetDevice) error {
	if !dev.opened {
		skb.Free()
		dev.Stats.TxErrors++
		return ENETDOWN
	}
	flags := dev.Kern.SaveFlags()
	dev.Kern.Cli()
	if skb.NrFrags() > 0 {
		if gc, ok := dev.Chip.(GatherChip); ok {
			gc.TxFrameGather(skb.Runs())
		} else {
			// A gather skbuff reached a chip without the engine (the
			// glue should never let this happen): flatten defensively.
			dev.Chip.TxFrame(skb.Flatten())
		}
	} else {
		dev.Chip.TxFrame(skb.Data)
	}
	dev.Stats.TxPackets++
	dev.Stats.TxBytes += uint64(skb.Len)
	dev.Kern.RestoreFlags(flags)
	skb.Free()
	return nil
}
