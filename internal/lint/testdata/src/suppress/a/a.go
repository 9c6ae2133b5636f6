package a

import "pdmfix/pdm"

func waived(m *pdm.Machine, a pdm.Addr) {
	m.Peek(a) //lint:pdm-allow iocharge: same-line waiver
	//lint:pdm-allow iocharge: waives the next line
	m.Peek(a)
	m.Peek(a)           //lint:pdm-allow detrand: wrong rule name // want `without charging parallel I/Os` `suppresses no diagnostic`
	m.Peek(a)           // want `without charging parallel I/Os`
	m.TryBatchRead(nil) //lint:pdm-allow iocharge: deliberate fire-and-forget
}
