package legacy

// sne2k: the kit's NE2000-class donor driver.  Programmed-I/O style: the
// chip's receive ring lives in card SRAM, so every received frame is
// copied off the card into a freshly allocated skbuff, and every transmit
// is staged through a bounce buffer "on the card" — the classic ne2000
// data path.

const (
	sne2kVendor = 0x10ec
	sne2kDevice = 0x8029
)

type sne2kPriv struct {
	txStage *KBuf
}

// SNE2KProbe examines one candidate chip and, if it answers to the
// NE2000 IDs, registers and returns a configured NetDevice.
func SNE2KProbe(k *Kernel, chip EtherChip, irq int, name string) *NetDevice {
	if v, d := chip.IDs(); v != sne2kVendor || d != sne2kDevice {
		return nil
	}
	dev := &NetDevice{
		Kern: k,
		Name: name,
		MAC:  chip.MacAddr(),
		IRQ:  irq,
		MTU:  1500,
		Chip: chip,
		Priv: &sne2kPriv{},
	}
	dev.Open = sne2kOpen
	dev.Stop = sne2kStop
	dev.HardStartXmit = sne2kXmit
	k.RegisterNetdev(dev)
	k.Printk("sne2k: %s at irq %d, %02x:%02x:%02x:%02x:%02x:%02x\n",
		name, irq, dev.MAC[0], dev.MAC[1], dev.MAC[2], dev.MAC[3], dev.MAC[4], dev.MAC[5])
	return dev
}

func sne2kOpen(dev *NetDevice) error {
	priv := dev.Priv.(*sne2kPriv)
	priv.txStage = dev.Kern.Kmalloc(1536, GFPKernel|GFPDMA)
	if priv.txStage == nil {
		return ENOMEM
	}
	if err := dev.Kern.RequestIRQ(dev.IRQ, func(int) { sne2kInterrupt(dev) }, dev.Name); err != nil {
		dev.Kern.Kfree(priv.txStage)
		priv.txStage = nil
		return err
	}
	dev.opened = true
	return nil
}

func sne2kStop(dev *NetDevice) error {
	if !dev.opened {
		return nil
	}
	dev.Kern.FreeIRQ(dev.IRQ)
	priv := dev.Priv.(*sne2kPriv)
	if priv.txStage != nil {
		dev.Kern.Kfree(priv.txStage)
		priv.txStage = nil
	}
	dev.opened = false
	return nil
}

// sne2kInterrupt drains the chip's receive ring, copying each frame into
// a contiguous skbuff and handing it up with netif_rx.
func sne2kInterrupt(dev *NetDevice) {
	k := dev.Kern
	for {
		frame := dev.Chip.RxFrame()
		if frame == nil {
			return
		}
		skb := k.AllocSKB(len(frame))
		if skb == nil {
			dev.Stats.RxDropped++
			continue
		}
		copy(skb.Put(len(frame)), frame)
		skb.Dev = dev
		dev.Stats.RxPackets++
		dev.Stats.RxBytes += uint64(len(frame))
		if k.NetifRx != nil {
			k.NetifRx(skb)
		} else {
			skb.Free()
		}
	}
}

// sne2kXmit copies the packet into the transmit staging buffer (the PIO
// copy onto card SRAM) and starts the transmitter, then frees the skb.
func sne2kXmit(skb *SKBuff, dev *NetDevice) error {
	priv := dev.Priv.(*sne2kPriv)
	if !dev.opened || priv.txStage == nil {
		skb.Free()
		dev.Stats.TxErrors++
		return ENETDOWN
	}
	flags := dev.Kern.SaveFlags()
	dev.Kern.Cli()
	// The PIO copy onto card SRAM gathers for free: a scattered packet
	// (which only a FeatSG-blind caller would hand this driver) costs
	// the same staging pass as a contiguous one.
	n := 0
	for _, run := range skb.Runs() {
		if n >= len(priv.txStage.Data) {
			break
		}
		n += copy(priv.txStage.Data[n:], run)
	}
	dev.Chip.TxFrame(priv.txStage.Data[:n])
	dev.Stats.TxPackets++
	dev.Stats.TxBytes += uint64(n)
	dev.Kern.RestoreFlags(flags)
	skb.Free()
	return nil
}
