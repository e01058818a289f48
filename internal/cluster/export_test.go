package cluster

import "fairjob/internal/serve"

// DegradedEngine returns the engine the degraded-result memo holds, nil
// before the first degradation.
func DegradedEngine(c *Coordinator) *serve.Engine {
	if m := c.deg.Load(); m != nil {
		return m.eng
	}
	return nil
}
